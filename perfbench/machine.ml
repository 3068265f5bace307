(* The hardware label printed with every run, and the memory-bandwidth
   probe, which runs only where its arrays can be at least four times the
   last-level cache within [probe_limit_bytes]. *)

let read_first path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)
  | exception Sys_error _ -> None

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec loop () =
            match input_line ic with
            | line when String.starts_with ~prefix:"model name" line -> (
                match String.index_opt line ':' with
                | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
                | None -> "unknown")
            | _ -> loop ()
            | exception End_of_file -> "unknown"
          in
          loop ())

(* "4096K" / "300M" -> bytes *)
let parse_size s =
  let n = String.length s in
  if n = 0 then None
  else
    let mult, digits =
      match s.[n - 1] with
      | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    Option.map (fun v -> v * mult) (int_of_string_opt digits)

(* (level, bytes) of cpu0's unified and data caches, from sysfs *)
let caches () =
  List.filter_map
    (fun i ->
      let dir = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/" i in
      match (read_first (dir ^ "level"), read_first (dir ^ "type"), read_first (dir ^ "size")) with
      | Some level, Some ty, Some size when ty <> "Instruction" -> (
          match (int_of_string_opt level, parse_size size) with
          | Some l, Some b -> Some (l, b)
          | _ -> None)
      | _ -> None)
    (List.init 8 Fun.id)

let cache_bytes level = List.assoc_opt level (caches ())

let llc_bytes () =
  match List.sort (fun (a, _) (b, _) -> compare b a) (caches ()) with
  | (_, b) :: _ -> Some b
  | [] -> None

let label ~nproc =
  let mib = function
    | Some b -> Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.0)
    | None -> "unknown"
  in
  Printf.sprintf "nproc=%d, cpu=%s, L2=%s, LLC=%s" nproc (cpu_model ())
    (mib (cache_bytes 2)) (mib (llc_bytes ()))

let probe_limit_bytes = 512 * 1024 * 1024

(* Streaming copy bandwidth (read + write bytes per second) over two arrays
   of at least 4x the LLC each; [Error reason] when that cannot be done
   within [probe_limit_bytes]. *)
let bandwidth_gbps () =
  match llc_bytes () with
  | None -> Error "LLC size unknown"
  | Some llc when 2 * 4 * llc > probe_limit_bytes ->
      Error
        (Printf.sprintf "arrays of 4x the %d MiB LLC exceed the %d MiB probe limit"
           (llc / 1048576) (probe_limit_bytes / 1048576))
  | Some llc ->
      let n = 4 * llc / 8 in
      let src = Array.make n 1.0 and dst = Array.make n 0.0 in
      let us =
        Mono.median_us ~budget_s:1.0 (fun () -> Array.blit src 0 dst 0 n)
      in
      Ok (float_of_int (16 * n) /. (us *. 1e3))
