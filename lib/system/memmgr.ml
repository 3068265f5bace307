open Gpu_sim

let log_src = Logs.Src.create "sysml.memmgr" ~doc:"GPU memory manager"

module Log = (val Logs.src_log log_src : Logs.LOG)

type block = {
  bytes : int;
  mutable device_dirty : bool;
  mutable last_use : int;
}

type stats = {
  uploads : int;
  downloads : int;
  evictions : int;
  hits : int;
  conversion_ms : float;
  transfer_ms : float;
}

type t = {
  device : Device.t;
  ledger : Xfer.t;
  jni_gbs : float;
  on_evict : key:string -> unit;
  blocks : (string, block) Hashtbl.t;
  mutable clock : int;
  mutable used_bytes : int;
  mutable uploads : int;
  mutable downloads : int;
  mutable evictions : int;
  mutable hits : int;
  mutable conversion_ms : float;
}

let create ?(jni_gbs = 2.0) ?(on_evict = fun ~key:_ -> ()) device =
  {
    device;
    ledger = Xfer.create device;
    jni_gbs;
    on_evict;
    blocks = Hashtbl.create 64;
    clock = 0;
    used_bytes = 0;
    uploads = 0;
    downloads = 0;
    evictions = 0;
    hits = 0;
    conversion_ms = 0.0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key block acc ->
        match acc with
        | Some (_, b) when b.last_use <= block.last_use -> acc
        | _ -> Some (key, block))
      t.blocks None
  in
  match victim with
  | None -> invalid_arg "Memmgr: allocation exceeds device memory"
  | Some (key, block) ->
      let cost =
        if block.device_dirty then
          Xfer.transfer t.ledger Device_to_host ~bytes:block.bytes
            ~label:("evict " ^ key)
        else 0.0
      in
      Log.debug (fun m ->
          m "evict %s (%d bytes%s)" key block.bytes
            (if block.device_dirty then ", dirty" else ""));
      Hashtbl.remove t.blocks key;
      t.used_bytes <- t.used_bytes - block.bytes;
      t.evictions <- t.evictions + 1;
      if block.device_dirty then t.downloads <- t.downloads + 1;
      t.on_evict ~key;
      cost

let alloc_recoveries = Kf_obs.Counter.make "resil.alloc_recoveries"

let ensure_resident t ~key ~bytes ~needs_conversion =
  if bytes > t.device.global_mem_bytes then
    invalid_arg "Memmgr.ensure_resident: block larger than device memory";
  match Hashtbl.find_opt t.blocks key with
  | Some block ->
      block.last_use <- tick t;
      t.hits <- t.hits + 1;
      0.0
  | None ->
      let eviction_cost = ref 0.0 in
      (* An injected allocation failure is recovered in place the way a
         real device OOM would be: spill every resident block back to
         the host (paying the eviction/download costs), then retry the
         now-trivially-satisfiable allocation. *)
      if Kf_resil.Fault.fire Kf_resil.Fault.Alloc ~point:"memmgr.alloc" then begin
        Kf_obs.Counter.incr alloc_recoveries;
        Log.warn (fun m ->
            m "injected allocation failure for %s: spilling %d resident blocks"
              key
              (Hashtbl.length t.blocks));
        while Hashtbl.length t.blocks > 0 do
          eviction_cost := !eviction_cost +. evict_lru t
        done
      end;
      while t.used_bytes + bytes > t.device.global_mem_bytes do
        eviction_cost := !eviction_cost +. evict_lru t
      done;
      let conversion =
        if needs_conversion then
          float_of_int bytes /. (t.jni_gbs *. 1e6)
        else 0.0
      in
      let transfer =
        Xfer.transfer t.ledger Host_to_device ~bytes ~label:("upload " ^ key)
      in
      Hashtbl.replace t.blocks key
        { bytes; device_dirty = false; last_use = tick t };
      t.used_bytes <- t.used_bytes + bytes;
      t.uploads <- t.uploads + 1;
      t.conversion_ms <- t.conversion_ms +. conversion;
      !eviction_cost +. conversion +. transfer

let touch_dirty t ~key =
  match Hashtbl.find_opt t.blocks key with
  | Some block ->
      block.device_dirty <- true;
      block.last_use <- tick t
  | None -> invalid_arg ("Memmgr.touch_dirty: block not resident: " ^ key)

let release t ~key =
  match Hashtbl.find_opt t.blocks key with
  | Some block ->
      Hashtbl.remove t.blocks key;
      t.used_bytes <- t.used_bytes - block.bytes
  | None -> ()

let is_resident t ~key = Hashtbl.mem t.blocks key

let resident_bytes t = t.used_bytes

let stats t =
  {
    uploads = t.uploads;
    downloads = t.downloads;
    evictions = t.evictions;
    hits = t.hits;
    conversion_ms = t.conversion_ms;
    transfer_ms = Xfer.total_ms t.ledger;
  }

let xfer t = t.ledger
