(* Self-tests of the benchmark's own checks: each one feeds a known fault
   to a check and asserts that the check sees it.  Run with
   `dune build @perfbench/selftest` (or `python3 perfbench/run.py
   --selftest`). *)

open Matrix
module Service = Kf_serve.Service

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* A tiny dense problem: 64 rows of 4 features. *)
let rows = 64

let cols = 4

let x = Dense.init rows cols (fun i j -> float_of_int (((i * 7) + (j * 3)) mod 11) /. 11.0)

let weights =
  { Kf_ml.Algorithm.vecs = [| [| 0.5; -0.25; 1.0; 0.125 |] |]; cols; extra = [] }

let model =
  Subject.serve_model (module Kf_ml.Linreg_cg.Algo) weights (Fusion.Executor.Dense x)

let tiny_subject train =
  {
    Subject.input = Fusion.Executor.Dense x;
    op = Subject.Eq1 { y = Array.make cols 1.0; v = None; beta = 0.0; z = Array.make cols 0.0 };
    engine = Fusion.Executor.Host;
    pool = Par.Pool.default ();
    cluster = None;
    train;
    model = (fun _ -> model);
  }

let trained w = { Subject.weights = w; iters = 1; ops = 1 }

let env ?(reference = fun _ -> Ok ()) train =
  let subject = tiny_subject train in
  {
    Work.subject;
    first = subject.train ();
    first_s = 0.0;
    reference;
    service = None;
    teardown = ignore;
  }

let run_train env =
  let out = Report.create () in
  Work.e2e_train env ~seconds:0.05 ~setup_s:0.1 out;
  out

(* Weights that change from one training to the next fail the checksum
   check; weights off the sequential reference fail every training. *)
let weights_checks () =
  let steady = run_train (env (fun () -> trained [| 1.0; 2.0 |])) in
  check "steady weights: fail_frac 0" (Report.fail_frac steady = 0.0 && steady.wrong = 0);
  let calls = ref 0 in
  let drifting () =
    incr calls;
    trained [| 1.0; (if !calls mod 2 = 0 then 2.0 +. 1e-12 else 2.0) |]
  in
  let drift = run_train (env drifting) in
  check "perturbed weights: fail_frac > 0" (Report.fail_frac drift > 0.0 && drift.wrong > 0);
  let off =
    run_train
      (env ~reference:(fun _ -> Error "off the reference") (fun () -> trained [| 1.0 |]))
  in
  check "weights off the reference: fail_frac 1" (Report.fail_frac off = 1.0)

let with_service ?(config = Probe.serve_config) ~algo ~weights f =
  let pool1 = Par.Pool.create ~size:1 () in
  let svc =
    Service.create ~engine:Fusion.Executor.Host ~pool:pool1 ~config Subject.device
      ~algo ~weights ()
  in
  Fun.protect
    ~finally:(fun () ->
      Service.shutdown svc;
      Par.Pool.shutdown pool1)
    (fun () -> f svc)

(* A served score that differs from the reference counts as wrong. *)
let score_checks () =
  with_service ~algo:model.algo ~weights:model.weights (fun svc ->
      let r = Loadgen.run svc ~rows:model.rows ~expect:model.expect ~rate:2000.0 ~seconds:0.1 in
      check "correct scores: none wrong" (Loadgen.wrong r = 0 && Loadgen.sent r = 200);
      let expect = Array.copy model.expect in
      expect.(3) <- expect.(3) +. 1e-6;
      let r = Loadgen.run svc ~rows:model.rows ~expect ~rate:2000.0 ~seconds:0.1 in
      let out = Report.create () in
      let bad = Loadgen.failed r + Loadgen.wrong r in
      Report.tally out ~attempted:(Loadgen.sent r) ~failed:bad ~wrong:bad;
      check "a wrong score: fail_frac > 0" (Loadgen.wrong r > 0 && Report.fail_frac out > 0.0))

(* A sender that stalls for 50 ms halfway makes the requests due during
   the stall late, and the run is flagged. *)
let late_check () =
  with_service ~algo:model.algo ~weights:model.weights (fun svc ->
      let r =
        Loadgen.run svc ~rows:model.rows ~expect:model.expect ~rate:2000.0 ~seconds:0.5
          ~stall:(fun k -> if k = 500 then Unix.sleepf 0.05)
      in
      check "stalled generator: flagged late" (Loadgen.late r))

(* A synthetic schedule whose outstanding count climbs fails the backlog
   test; a flat one passes. *)
let backlog_checks () =
  let n = 4000 in
  let synthetic outstanding =
    {
      Loadgen.rate = 10000.0;
      due_ns = Array.init n (fun k -> k * 100_000);
      sent_ns = Array.init n (fun k -> k * 100_000);
      done_ns = Array.init n (fun k -> (k * 100_000) + 50_000);
      status = Array.make n Loadgen.Scored;
      outstanding = Array.init n outstanding;
      window_us = Array.make n 0;
    }
  in
  let flat = synthetic (fun k -> k mod 3) in
  let climbing = synthetic (fun k -> k / 4) in
  check "flat backlog: sustained" (Loadgen.sustained flat);
  check "climbing backlog: growing, not sustained"
    (Loadgen.growing climbing && not (Loadgen.sustained climbing));
  (* a real one: one wide row per batch at far more than the service can
     score; the admission bound is lifted so nothing is shed and only the
     backlog shows *)
  let wide = 50_000 in
  let heavy =
    { Kf_ml.Algorithm.vecs = [| Array.make wide 0.5 |]; cols = wide; extra = [] }
  in
  let rows = [| Service.Dense_row (Array.make wide 1.0) |] in
  let config =
    { Probe.serve_config with adaptive = false; window_us = 0; max_batch = 1;
      queue_depth = 1_000_000 }
  in
  with_service ~config ~algo:(module Kf_ml.Linreg_cg.Algo) ~weights:heavy (fun svc ->
      let r = Loadgen.run svc ~rows ~expect:[| 25000.0 |] ~rate:40000.0 ~seconds:0.1 in
      check "rate past capacity: rejected by the backlog test"
        (Loadgen.shed r = 0 && Loadgen.growing r && not (Loadgen.sustained r)))

let () =
  weights_checks ();
  score_checks ();
  late_check ();
  backlog_checks ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
