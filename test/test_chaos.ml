(* Chaos coverage for hot-swap and residency: weight generations swap
   under live concurrent load (directly, and through the file watcher
   with injected torn writes), and the LRU byte budget evicts and
   re-materialises models mid-traffic.  The invariants, throughout:
   zero requests resolve [Failed], and every score is explained by
   exactly one weight generation — a batch that mixed two generations
   would produce a score matching none. *)
open Gpu_sim
open Kf_serve

let device = Device.gtx_titan

let lr = Kf_ml.Registry.find "lr"

let lr_weights ~cols seed =
  let rng = Matrix.Rng.create seed in
  let w = Matrix.Gen.vector rng cols in
  { Kf_ml.Algorithm.vecs = [| w |]; cols; extra = [] }

let dense_row ~cols seed =
  let rng = Matrix.Rng.create seed in
  Array.init cols (fun _ -> (2.0 *. Matrix.Rng.uniform rng) -. 1.0)

let reference_score weights row =
  let input = Fusion.Executor.Dense (Matrix.Dense.of_arrays [| row |]) in
  (Kf_ml.Algorithm.predict lr weights input).(0)

let adaptive_config =
  {
    Service.window_us = 0;
    max_batch = 8;
    queue_depth = 1024;
    adaptive = true;
    window_cap_us = 100;
    deadline_shed = false;
  }

let write_ckpt path weights =
  Kf_resil.Ckpt.write ~path ~algorithm:"lr" ~iteration:0
    (Kf_ml.Algorithm.weights_payload weights)

let temp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kf-chaos-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o700;
  dir

(* A closed-loop client thread: submit, await, record
   (generation, row seed, score) — or the first error it hits. *)
let client ~svc_submit ~cols ~stop ~tid =
  let results = ref [] in
  let error = ref None in
  let i = ref 0 in
  while (not (Atomic.get stop)) && !error = None do
    let seed = (tid * 1_000_000) + !i in
    incr i;
    let row = dense_row ~cols seed in
    match svc_submit (Service.Dense_row row) with
    | None -> error := Some "request shed below the queue bound"
    | Some t -> (
        match Service.await t with
        | Service.Failed msg -> error := Some ("request failed: " ^ msg)
        | Service.Score s ->
            results := (Service.generation t, seed, s) :: !results)
  done;
  (!results, !error)

let spawn_clients ~n ~svc_submit ~cols ~stop =
  List.init n (fun tid ->
      let cell = ref ([], None) in
      let th =
        Thread.create (fun () -> cell := client ~svc_submit ~cols ~stop ~tid) ()
      in
      (th, cell))

let collect_clients clients =
  List.concat_map
    (fun (th, cell) ->
      Thread.join th;
      let results, error = !cell in
      (match error with Some msg -> Alcotest.fail msg | None -> ());
      results)
    clients

(* Which weight version explains this score?  Exactly one must. *)
let explain ~versions ~cols (gen, seed, score) =
  let row = dense_row ~cols seed in
  let matches =
    List.filteri
      (fun _ w -> Float.abs (score -. reference_score w row) <= 1e-9)
      (Array.to_list versions)
  in
  match matches with
  | [ w ] -> w
  | [] ->
      Alcotest.failf
        "score %.17g (generation %d) matches no weight version — mixed batch?"
        score gen
  | _ ->
      (* two planted random versions agreeing to 1e-9 on a random row is
         astronomically unlikely; treat it as a test-setup bug *)
      Alcotest.failf "score %.17g matches several weight versions" score

(* Every request of one generation must be explained by the same
   version: generations are atomic, never a blend. *)
let check_generations_pure ~versions ~cols results =
  let by_gen = Hashtbl.create 16 in
  List.iter
    (fun ((gen, _, _) as r) ->
      let w = explain ~versions ~cols r in
      match Hashtbl.find_opt by_gen gen with
      | None -> Hashtbl.add by_gen gen w
      | Some w' ->
          if not (w == w') then
            Alcotest.failf "generation %d scored against two weight versions"
              gen)
    results;
  by_gen

(* --- swap storm straight through Service.swap --------------------------- *)

let test_swap_storm () =
  let cols = 16 in
  let versions = Array.init 12 (fun g -> lr_weights ~cols (500 + g)) in
  let svc =
    Service.create ~config:adaptive_config device ~algo:lr
      ~weights:versions.(0) ()
  in
  let stop = Atomic.make false in
  let clients =
    spawn_clients ~n:4 ~svc_submit:(Service.submit svc) ~cols ~stop
  in
  (* publish the remaining 11 versions while the clients hammer away *)
  for g = 1 to 11 do
    Thread.delay 0.01;
    let gen = Service.swap svc versions.(g) in
    Alcotest.(check int) "swap returns consecutive generations" (g + 1) gen
  done;
  Thread.delay 0.02;
  Atomic.set stop true;
  let results = collect_clients clients in
  Alcotest.(check bool) "load actually ran" true (List.length results > 50);
  let st = Service.stats svc in
  Alcotest.(check int) "no failures under the swap storm" 0
    st.Service.failures;
  Alcotest.(check int) "all 11 swaps published" 11 st.Service.swaps;
  let by_gen = check_generations_pure ~versions ~cols results in
  (* generation g serves exactly versions.(g-1): publication order is
     the generation order *)
  Hashtbl.iter
    (fun gen w ->
      Alcotest.(check bool)
        (Printf.sprintf "generation %d serves the %dth published version" gen
           gen)
        true
        (w == versions.(gen - 1)))
    by_gen;
  Service.shutdown svc

(* --- hot-swap through the file watcher, with torn files ----------------- *)

let test_watcher_chaos () =
  let cols = 16 in
  let dir = temp_dir () in
  let path = Filename.concat dir "m.ckpt" in
  let versions = Array.init 8 (fun g -> lr_weights ~cols (900 + g)) in
  write_ckpt path versions.(0);
  let registry =
    Models.create ~config:adaptive_config device
      [ { Models.name = "chaos"; path; slo = None } ]
  in
  Models.watch ~period_s:0.005 registry;
  let svc = Models.service registry "chaos" in
  let stop = Atomic.make false in
  let clients =
    spawn_clients ~n:2 ~svc_submit:(Models.submit registry "chaos") ~cols ~stop
  in
  for g = 1 to 7 do
    Thread.delay 0.03;
    if g mod 3 = 0 then begin
      (* tear the file in place: a half-truncated checkpoint the watcher
         must reject while the previous generation keeps serving *)
      write_ckpt path versions.(g);
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      let size = (Unix.fstat fd).Unix.st_size in
      Unix.ftruncate fd (size / 2);
      Unix.close fd;
      Thread.delay 0.03;
      write_ckpt path versions.(g)
    end
    else
      (* injected mid-write truncation: Ckpt.write heals it before the
         rename, so the watcher only ever reads a whole file *)
      Kf_resil.Fault.with_config "trunc:after=0:times=1" (fun () ->
          write_ckpt path versions.(g))
  done;
  Thread.delay 0.05;
  Atomic.set stop true;
  let results = collect_clients clients in
  Alcotest.(check bool) "load actually ran" true (List.length results > 50);
  let st = Service.stats svc in
  Alcotest.(check int) "no failures under watcher chaos" 0
    st.Service.failures;
  Alcotest.(check bool)
    (Printf.sprintf "watcher published swaps (got %d)" st.Service.swaps)
    true
    (st.Service.swaps >= 2);
  let by_gen = check_generations_pure ~versions ~cols results in
  (* publication follows write order: later generations serve later
     versions (equal when a re-publish dedups) *)
  let index w =
    let rec go i = if versions.(i) == w then i else go (i + 1) in
    go 0
  in
  let gens = List.sort compare (Hashtbl.fold (fun g _ a -> g :: a) by_gen []) in
  ignore
    (List.fold_left
       (fun prev g ->
         let v = index (Hashtbl.find by_gen g) in
         Alcotest.(check bool)
           (Printf.sprintf "generation %d serves version >= its predecessor's"
              g)
           true (v >= prev);
         v)
       (-1) gens);
  Models.shutdown registry;
  Sys.remove path;
  Unix.rmdir dir

(* --- LRU eviction and re-materialisation under load --------------------- *)

let test_eviction_chaos () =
  let cols = 16 in
  let dir = temp_dir () in
  let mk name seed =
    let path = Filename.concat dir (name ^ ".ckpt") in
    let w = lr_weights ~cols seed in
    write_ckpt path w;
    ({ Models.name; path; slo = None }, w)
  in
  let specs_weights = [ mk "alpha" 11; mk "beta" 12; mk "gamma" 13 ] in
  let specs = List.map fst specs_weights in
  (* 128 bytes per model; budget holds exactly two of the three, so
     round-robin traffic churns the LRU the whole run *)
  let budget = 2 * 8 * cols in
  let registry =
    Models.create ~config:adaptive_config ~max_resident_bytes:budget device
      specs
  in
  let s =
    Driver.run_models registry
      { Driver.clients = 3; rps = 0.0; duration_s = 0.3; seed = 20260808 }
  in
  Alcotest.(check int) "no failures under eviction churn" 0 s.Driver.failed;
  Alcotest.(check int) "no sheds" 0 s.Driver.shed;
  Alcotest.(check bool) "made progress" true (s.Driver.ok > 100);
  Alcotest.(check bool)
    "residency stays within the byte budget" true
    (Models.resident_bytes registry <= budget);
  Alcotest.(check bool)
    "at most two models resident" true
    (List.length (List.filter (Models.resident registry) (Models.names registry))
    <= 2);
  (* the evicted model re-materialises bit-exactly: its score matches
     the weights we planted at create time *)
  List.iter
    (fun ({ Models.name; _ }, w) ->
      let row = dense_row ~cols 4242 in
      match Models.submit registry name (Service.Dense_row row) with
      | None -> Alcotest.failf "%s: verification probe shed" name
      | Some t -> (
          match Service.await t with
          | Service.Failed msg -> Alcotest.failf "%s: probe failed: %s" name msg
          | Service.Score got ->
              let want = reference_score w row in
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s scores its own weights after eviction churn" name)
                true
                (Float.abs (got -. want) <= 1e-9)))
    specs_weights;
  Models.shutdown registry;
  List.iter (fun { Models.path; _ } -> Sys.remove path) specs;
  Unix.rmdir dir

(* The eviction churn, repeated: every round submits to all three
   models back to back without waiting, so batches are queued for
   models that the next submissions evict.  Each such batch
   re-materialises its model, and that must re-admit it to the budget:
   once a round settles, at most two models are loaded and they are
   exactly the ones the memory manager charges. *)
let test_eviction_stress () =
  let cols = 16 in
  let dir = temp_dir () in
  let mk name seed =
    let path = Filename.concat dir (name ^ ".ckpt") in
    write_ckpt path (lr_weights ~cols seed);
    { Models.name; path; slo = None }
  in
  let specs = [ mk "alpha" 21; mk "beta" 22; mk "gamma" 23 ] in
  let registry =
    Models.create ~config:adaptive_config ~max_resident_bytes:(2 * 8 * cols)
      device specs
  in
  let names = Models.names registry in
  for round = 1 to 40 do
    let tickets =
      List.concat_map
        (fun k ->
          List.filter_map
            (fun name ->
              Models.submit registry name
                (Service.Dense_row (dense_row ~cols ((round * 10) + k))))
            names)
        [ 0; 1; 2 ]
    in
    Alcotest.(check int)
      (Printf.sprintf "round %d: nothing shed" round)
      9 (List.length tickets);
    List.iter
      (fun t ->
        match Service.await t with
        | Service.Failed msg -> Alcotest.failf "round %d: %s" round msg
        | Service.Score _ -> ())
      tickets;
    let loaded = List.filter (Models.resident registry) names in
    let admitted = List.filter (Models.admitted registry) names in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: at most two models loaded" round)
      true
      (List.length loaded <= 2);
    Alcotest.(check (list string))
      (Printf.sprintf "round %d: loaded = admitted" round)
      admitted loaded
  done;
  Models.shutdown registry;
  List.iter (fun { Models.path; _ } -> Sys.remove path) specs;
  Unix.rmdir dir


let suite =
  [
    Alcotest.test_case "swap storm: atomic generations under load" `Quick
      test_swap_storm;
    Alcotest.test_case "watcher chaos: torn files rejected, swaps clean" `Quick
      test_watcher_chaos;
    Alcotest.test_case "eviction churn: LRU within budget, no losses" `Quick
      test_eviction_chaos;
    Alcotest.test_case "eviction churn repeated: loaded = admitted" `Quick
      test_eviction_stress;
  ]
