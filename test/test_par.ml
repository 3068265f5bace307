(* The domain pool and work partitioner underneath the host backend. *)

let with_pool size f =
  let pool = Par.Pool.create ~size () in
  Fun.protect ~finally:(fun () -> if size > 1 then Par.Pool.shutdown pool)
    (fun () -> f pool)

let test_default_size_env () =
  let saved = Sys.getenv_opt "KF_DOMAINS" in
  let restore () =
    match saved with
    | Some v -> Unix.putenv "KF_DOMAINS" v
    | None -> Unix.putenv "KF_DOMAINS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "KF_DOMAINS" "3";
      Alcotest.(check int) "env respected" 3 (Par.Pool.default_size ());
      Unix.putenv "KF_DOMAINS" "not-a-number";
      Alcotest.(check bool) "garbage falls back to >= 1" true
        (Par.Pool.default_size () >= 1);
      Unix.putenv "KF_DOMAINS" "0";
      Alcotest.(check bool) "non-positive falls back to >= 1" true
        (Par.Pool.default_size () >= 1))

let test_run_workers_covers_all () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let seen = Array.make size 0 in
          Par.Pool.run_workers pool (fun wid -> seen.(wid) <- seen.(wid) + 1);
          Alcotest.(check (array int))
            (Printf.sprintf "each of %d workers ran once" size)
            (Array.make size 1) seen))
    [ 1; 2; 4 ]

let test_pool_reuse () =
  with_pool 3 (fun pool ->
      (* many jobs through the same pool: the handshake must not lose a
         wake-up or double-run a generation *)
      for round = 1 to 50 do
        let counter = Atomic.make 0 in
        Par.Pool.run_workers pool (fun _ -> Atomic.incr counter);
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          3 (Atomic.get counter)
      done)

let test_parallel_for_sums () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let n = 10_000 in
          let hits = Array.make n 0 in
          Par.Pool.parallel_for pool ~lo:0 ~hi:n (fun a b ->
              for i = a to b - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Alcotest.(check bool)
            (Printf.sprintf "every index covered exactly once (size %d)" size)
            true
            (Array.for_all (( = ) 1) hits)))
    [ 1; 2; 4 ]

let test_parallel_for_empty () =
  with_pool 2 (fun pool ->
      let touched = ref false in
      Par.Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ _ -> touched := true);
      Par.Pool.parallel_for pool ~lo:5 ~hi:3 (fun _ _ -> touched := true);
      Alcotest.(check bool) "empty ranges run nothing" false !touched)

let test_map_workers () =
  with_pool 4 (fun pool ->
      let ids = Par.Pool.map_workers pool (fun wid -> wid * 10) in
      Alcotest.(check (array int)) "results indexed by worker"
        [| 0; 10; 20; 30 |] ids)

let test_exception_propagates () =
  with_pool 2 (fun pool ->
      let raised =
        try
          Par.Pool.run_workers pool (fun wid ->
              if wid = 1 then failwith "boom");
          false
        with Failure m -> m = "boom"
      in
      Alcotest.(check bool) "worker exception re-raised in caller" true raised;
      (* the pool must stay usable after a failed job *)
      let counter = Atomic.make 0 in
      Par.Pool.run_workers pool (fun _ -> Atomic.incr counter);
      Alcotest.(check int) "pool alive after exception" 2 (Atomic.get counter))

let test_partition_uniform () =
  let b = Par.Partition.uniform ~n:10 ~parts:3 in
  Alcotest.(check int) "starts at 0" 0 b.(0);
  Alcotest.(check int) "ends at n" 10 b.(3);
  for k = 0 to 2 do
    Alcotest.(check bool) "monotone" true (b.(k) <= b.(k + 1))
  done;
  (* more parts than items: empty parts allowed, still covering *)
  let b = Par.Partition.uniform ~n:2 ~parts:5 in
  Alcotest.(check int) "covers despite empty parts" 2 b.(5)

let prefix_of_weights w =
  let n = Array.length w in
  let p = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    p.(i + 1) <- p.(i) + w.(i)
  done;
  p

let test_partition_by_prefix_balanced () =
  (* a skewed distribution: one heavy item among light ones *)
  let weights = Array.make 100 1 in
  weights.(17) <- 500;
  let prefix = prefix_of_weights weights in
  let parts = 4 in
  let b = Par.Partition.by_prefix ~prefix ~parts () in
  Alcotest.(check int) "covers all" 100 b.(parts);
  Alcotest.(check int) "starts at 0" 0 b.(0);
  for k = 0 to parts - 1 do
    Alcotest.(check bool) "monotone" true (b.(k) <= b.(k + 1))
  done;
  (* the heavy item must sit alone-ish: no part other than the one
     holding item 17 may carry more than ~2x the fair share of the
     remaining weight *)
  let fair = (prefix.(100) + (100 * 1)) / parts in
  for k = 0 to parts - 1 do
    let holds_heavy = b.(k) <= 17 && 17 < b.(k + 1) in
    if not holds_heavy then begin
      let load = prefix.(b.(k + 1)) - prefix.(b.(k)) + (b.(k + 1) - b.(k)) in
      Alcotest.(check bool)
        (Printf.sprintf "part %d load %d <= 2*fair %d" k load fair)
        true
        (load <= 2 * fair)
    end
  done

let test_partition_qcheck =
  QCheck.Test.make ~count:200 ~name:"by_prefix covers [0,n) monotonically"
    QCheck.(
      pair (list_of_size Gen.(int_range 0 60) (int_range 0 50))
        (int_range 1 8))
    (fun (weights, parts) ->
      let weights = Array.of_list weights in
      let prefix = prefix_of_weights weights in
      let b = Par.Partition.by_prefix ~prefix ~parts () in
      let n = Array.length weights in
      b.(0) = 0
      && b.(parts) = n
      && Array.for_all (fun x -> x >= 0 && x <= n) b
      &&
      let mono = ref true in
      for k = 0 to parts - 1 do
        if b.(k) > b.(k + 1) then mono := false
      done;
      !mono)

let test_l2_source () =
  (* [detected_l2] is lazy process-wide state, so only the coherence of
     the pair is testable here; the env/sysfs/fallback branches are
     covered by the probe being forced exactly once per process *)
  let src = Par.Tune.l2_source () in
  Alcotest.(check bool) "source names a known origin" true
    (List.mem src [ "env"; "sysfs"; "fallback" ]);
  Alcotest.(check bool) "l2 size is positive" true (Par.Tune.l2_bytes () > 0);
  if src = "fallback" then
    Alcotest.(check int) "fallback is 1 MiB" (1 lsl 20) (Par.Tune.l2_bytes ())

let suite =
  [
    Alcotest.test_case "default size from KF_DOMAINS" `Quick
      test_default_size_env;
    Alcotest.test_case "run_workers covers all workers" `Quick
      test_run_workers_covers_all;
    Alcotest.test_case "pool survives many jobs" `Quick test_pool_reuse;
    Alcotest.test_case "parallel_for covers the range" `Quick
      test_parallel_for_sums;
    Alcotest.test_case "parallel_for on empty ranges" `Quick
      test_parallel_for_empty;
    Alcotest.test_case "map_workers indexes by worker" `Quick test_map_workers;
    Alcotest.test_case "exceptions propagate, pool survives" `Quick
      test_exception_propagates;
    Alcotest.test_case "uniform partition bounds" `Quick test_partition_uniform;
    Alcotest.test_case "nnz-balanced partition: skewed load" `Quick
      test_partition_by_prefix_balanced;
    QCheck_alcotest.to_alcotest test_partition_qcheck;
    Alcotest.test_case "L2 detection records its source" `Quick test_l2_source;
  ]
