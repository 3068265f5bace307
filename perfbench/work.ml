(* The four workloads: their inputs (made from the seed), their set-up,
   the untraced end-to-end run and the traced per-layer run. *)

open Matrix
module Executor = Fusion.Executor
module Service = Kf_serve.Service

let kdd_scale = 0.002

let higgs_scale = 0.002

let graph_nodes = 100_000

let graph_out_degree = 8

(* Open-loop rates (requests/s).  [mid_rate] and [high_rate] sit at about
   40% and 70% of the lowest capacity ([serve.max_rps]) serve-higgs showed
   on a 2-core Xeon, about 250,000/s.  [low_rate] is far below 10% of it:
   at 6,000/s the coalescing controller stays closed and a run's latency
   percentiles repeat within a few percent, while at 12,000-18,000/s the
   controller flips between open and closed from run to run. *)
let low_rate = 6000.0

let mid_rate = 100000.0

let high_rate = 175000.0

let rates = [ (low_rate, "low"); (mid_rate, "mid"); (high_rate, "high") ]

(* The capacity ladder (traced run): 5% steps from 2,000 to 400,000
   requests/s. *)
let ladder = Loadgen.ladder ~lo:2000.0 ~hi:400000.0

(* Host weights may differ from the sequential reference by floating-point
   reassociation only: the largest difference must stay within this
   share of the largest reference weight. *)
let host_tolerance = 1e-6

type env = {
  subject : Subject.t;
  first : Subject.trained;  (** the warm-up training: checksum reference *)
  first_s : float;  (** its wall time *)
  reference : Subject.trained -> (unit, string) result;
      (** weights against the sequential reference *)
  service : (Service.t * Subject.model) option;  (** serve-higgs only *)
  teardown : unit -> unit;
}

type workload = { name : string; setup : seed:int -> nproc:int -> env }

let checksum (t : Subject.trained) = Kf_resil.Ckpt.checksum_floats t.weights

let max_abs a = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 a

let within ~tol ~what (got : float array) (want : float array) =
  if Array.length got <> Array.length want then Error (what ^ ": lengths differ")
  else
    let d = Vec.max_abs_diff got want in
    let limit = tol *. Float.max 1.0 (max_abs want) in
    if d <= limit then Ok ()
    else Error (Printf.sprintf "%s: max |diff| %g > %g" what d limit)

let warm_up subject = Mono.time_ns subject.Subject.train

(* ---- inputs ---- *)

let kdd seed =
  let d = Kf_ml.Dataset.kdd_like ~scale:kdd_scale (Rng.create seed) in
  match d.features with
  | Executor.Sparse x -> (d, x)
  | Executor.Dense _ -> invalid_arg "kdd_like: expected a sparse matrix"

(* LR-CG's operation [X^T (X p) + eps p] at a fixed [p]. *)
let lr_op cols =
  let p = Array.init cols (fun j -> Float.of_int ((j * 7919) mod 1000) /. 1000.0) in
  Subject.Eq1 { y = p; v = None; beta = 0.001; z = p }

let lr_subject ~engine ?cluster (d : Kf_ml.Dataset.regression) =
  let input = d.features in
  let cols = Executor.cols input in
  {
    Subject.input;
    op = lr_op cols;
    engine;
    pool = Par.Pool.default ();
    cluster;
    train =
      (fun () ->
        let r =
          Kf_ml.Linreg_cg.fit ~engine ?cluster Subject.device input
            ~targets:d.targets
        in
        {
          Subject.weights = r.weights;
          iters = r.iterations;
          ops = Subject.total_ops r.trace;
        });
    model =
      (fun t ->
        Subject.serve_model
          (module Kf_ml.Linreg_cg.Algo)
          { Kf_ml.Algorithm.vecs = [| t.weights |]; cols; extra = [] }
          input);
  }

(* ---- the workloads ---- *)

(* LR-CG to convergence on the host engine; weights checked against the
   sequential CPU solver within [host_tolerance]. *)
let train_kdd =
  let setup ~seed ~nproc:_ =
    let d, _ = kdd seed in
    let subject = lr_subject ~engine:Executor.Host d in
    let first, ns = warm_up subject in
    let reference (t : Subject.trained) =
      let r = Kf_ml.Linreg_cg.fit_cpu d.features ~targets:d.targets in
      within ~tol:host_tolerance ~what:"host vs sequential weights" t.weights
        r.cpu_weights
    in
    { subject; first; first_s = Mono.s ns; reference; service = None;
      teardown = ignore }
  in
  { name = "train-kdd"; setup }

(* One dist pattern op recomputed sequentially: each worker's row shard
   through the reference BLAS, the partials summed in worker order, then
   the epilogue — the association the cluster promises, so the two must
   agree bit for bit. *)
let sharded_pattern ~workers x ~y ~beta ~z =
  let bounds =
    Par.Partition.by_prefix ~prefix:x.Csr.row_off ~parts:workers ()
  in
  let acc = Array.make x.Csr.cols 0.0 in
  for k = 0 to workers - 1 do
    let shard =
      Csr.slice_rows x ~row_start:bounds.(k)
        ~row_count:(bounds.(k + 1) - bounds.(k))
    in
    let w = Blas.pattern_sparse ~alpha:1.0 shard y () in
    Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) w
  done;
  Blas.finish_pattern ~alpha:1.0 ~beta:(Some beta) ~z:(Some z) acc

(* The same problem on the dist engine.  One op must equal its sharded
   sequential recomputation bit for bit, and the trained weights must
   match the sequential solver within [host_tolerance]: with more than
   one worker the reduction order differs from one sequential pass. *)
let train_dist =
  let setup ~seed ~nproc =
    let d, x = kdd seed in
    let cluster = Kf_dist.Cluster.create ~workers:nproc () in
    let subject = lr_subject ~engine:Executor.Dist ~cluster d in
    let first, ns = warm_up subject in
    let reference (t : Subject.trained) =
      let y, _, beta, z = Subject.eq1_args subject in
      let op =
        Kf_dist.Cluster.pattern_sparse cluster x ~y ~beta_z:(beta, z) ~alpha:1.0 ()
      in
      if op <> sharded_pattern ~workers:nproc x ~y ~beta ~z then
        Error "dist op differs from its sharded sequential recomputation"
      else
        let r = Kf_ml.Linreg_cg.fit_cpu d.features ~targets:d.targets in
        within ~tol:host_tolerance ~what:"dist vs sequential weights" t.weights
          r.cpu_weights
    in
    { subject; first; first_s = Mono.s ns; reference; service = None;
      teardown = (fun () -> Kf_dist.Cluster.shutdown cluster) }
  in
  { name = "train-dist"; setup }

(* Graph embedding through the fused SDDMM ⊕ SpMM chain; the embedding
   must match a run on a one-domain pool within [host_tolerance] (output
   rows are disjoint, so the domain count should not change a bit). *)
let train_graph =
  let setup ~seed ~nproc:_ =
    let rng = Rng.create seed in
    let g =
      Kf_ml.Dataset.adjacency rng ~nodes:graph_nodes ~out_degree:graph_out_degree
    in
    let dim = Kf_ml.Graphemb.default_dim in
    let h = Gen.dense rng ~rows:graph_nodes ~cols:dim in
    let pool = Par.Pool.default () in
    let run pool =
      let r = Kf_ml.Graphemb.run ~engine:Executor.Host ~pool Subject.device g h in
      {
        Subject.weights = r.embedding.Dense.data;
        iters = r.iterations;
        ops = Subject.total_ops r.trace;
      }
    in
    let subject =
      {
        Subject.input = Executor.Sparse g;
        op = Subject.Fusedmm { g; h };
        engine = Executor.Host;
        pool;
        cluster = None;
        train = (fun () -> run pool);
        model =
          (fun t ->
            let weights =
              {
                Kf_ml.Algorithm.vecs =
                  Array.init dim (fun k ->
                      Array.init graph_nodes (fun i -> t.weights.((i * dim) + k)));
                cols = graph_nodes;
                extra = [ ("model.dim", Kf_resil.Ckpt.Int dim) ];
              }
            in
            Subject.serve_model (module Kf_ml.Graphemb.Algo) weights (Executor.Sparse g));
      }
    in
    let first, ns = warm_up subject in
    let reference (t : Subject.trained) =
      let one = Par.Pool.create ~size:1 () in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown one)
        (fun () ->
          within ~tol:host_tolerance ~what:"embedding vs one-domain run"
            t.weights (run one).weights)
    in
    { subject; first; first_s = Mono.s ns; reference; service = None;
      teardown = ignore }
  in
  { name = "train-graph"; setup }

(* A LogReg model trained in set-up on HIGGS-like rows, served by one
   service on a one-domain pool; every score is checked against the
   sequential [Algorithm.predict]. *)
let serve_higgs =
  let setup ~seed ~nproc:_ =
    let d = Kf_ml.Dataset.higgs_like ~scale:higgs_scale (Rng.create seed) in
    let input = d.features in
    let cols = Executor.cols input in
    let algo = (module Kf_ml.Logreg.Algo : Kf_ml.Algorithm.S) in
    let cfg = { Kf_ml.Algorithm.default_cfg with engine = Executor.Host } in
    let train () =
      let r =
        Kf_ml.Logreg.Algo.train ~cfg
          { Kf_ml.Algorithm.device = Subject.device; input; raw = d.targets; seed }
      in
      {
        Subject.weights = Kf_ml.Algorithm.flat_weights r.weights;
        iters = List.length r.timeline;
        ops = Subject.total_ops r.trace;
      }
    in
    (* LogReg's Hessian-vector product at a fixed point: [v] stands in for
       the sigmoid-derivative weights, [lambda = 1] *)
    let v = Array.make (Executor.rows input) 0.25 in
    let p = Array.init cols (fun j -> Float.of_int (j + 1) /. Float.of_int cols) in
    let subject =
      {
        Subject.input;
        op = Subject.Eq1 { y = p; v = Some v; beta = 1.0; z = p };
        engine = Executor.Host;
        pool = Par.Pool.default ();
        cluster = None;
        train;
        model =
          (fun t ->
            Subject.serve_model algo
              { Kf_ml.Algorithm.vecs = [| t.weights |]; cols; extra = [] }
              input);
      }
    in
    let first, ns = warm_up subject in
    let model = subject.model first in
    let pool1 = Par.Pool.create ~size:1 () in
    let svc = Probe.start_service model ~pool1 in
    ignore
      (Loadgen.run svc ~rows:model.rows ~expect:model.expect ~rate:low_rate
         ~seconds:0.3);
    {
      subject;
      first;
      first_s = Mono.s ns;
      reference = (fun _ -> Ok ());
      service = Some (svc, model);
      teardown =
        (fun () ->
          Service.shutdown svc;
          Par.Pool.shutdown pool1);
    }
  in
  { name = "serve-higgs"; setup }

let all = [ train_kdd; train_graph; serve_higgs; train_dist ]

(* ---- set-up, repeated ---- *)

(* Set up [reps] times, tearing the previous environment down first
   (untimed); returns the last environment and the median set-up time. *)
let timed_setup w ~seed ~nproc ~reps =
  let env = ref None in
  let times =
    Array.init reps (fun _ ->
        Option.iter (fun e -> e.teardown ()) !env;
        env := None;
        Gc.full_major ();
        let e, ns = Mono.time_ns (fun () -> w.setup ~seed ~nproc) in
        env := Some e;
        Mono.s ns)
  in
  (Option.get !env, Sample.median times)

(* ---- end to end, tracing off ---- *)

let add_common out ~setup_s =
  Report.add out "setup_s" "s" setup_s;
  Report.add out "peak_rss_mb" "MiB" (Report.peak_rss_mb ())

(* The end-to-end time is p50_rel: a median operation time over the time
   of a reference measured in the same run and interleaved with it (see
   [Reference]).  The raw times are printed on `#` lines: between runs of
   the same code they move with the neighbours' load by more than the
   largest bound a metric may have (0.25).

   Here each training is followed by one call of the reference kernel on
   as many domains as the workload's pool, so the two see the same
   machine; p50_rel is the median of the per-pair ratios. *)
let e2e_train env ~seconds ~setup_s out =
  let reference_sum = checksum env.first in
  let kernel = Reference.create ~domains:(Par.Pool.size env.subject.pool) in
  ignore (Reference.time_ms kernel);
  let pairs = ref [] and attempted = ref 0 and mismatched = ref 0 in
  let t0 = Mono.now_ns () in
  while !attempted = 0 || Mono.s (Mono.now_ns () - t0) < seconds do
    incr attempted;
    match Mono.time_ns env.subject.train with
    | r, ns ->
        pairs := (Mono.ms ns, Reference.time_ms kernel) :: !pairs;
        if checksum r <> reference_sum then incr mismatched
    | exception e ->
        incr mismatched;
        Report.note "training raised %s" (Printexc.to_string e)
  done;
  let timed_s = Mono.s (Mono.now_ns () - t0) in
  let failed =
    match env.reference env.first with
    | Ok () -> !mismatched
    | Error msg ->
        Report.note "weights check failed: %s" msg;
        !attempted
  in
  Report.tally out ~attempted:!attempted ~failed ~wrong:failed;
  let samples = Array.of_list (List.map fst !pairs) in
  let refs = Array.of_list (List.map snd !pairs) in
  let q, tail = Sample.tail samples in
  Report.note "%d trainings in %.2f s, %d iterations, weights %s"
    (Array.length samples) timed_s env.first.iters (checksum env.first);
  Report.note "training p50 %.3f ms, p%g %.3f ms; reference kernel p50 %.3f ms"
    (Sample.median samples) (100.0 *. q) tail (Sample.median refs);
  Report.add out "p50_rel" "ratio" (Sample.median (Array.map2 ( /. ) samples refs));
  add_common out ~setup_s

(* Open-loop requests at [low_rate] for the whole timed window, in
   [segments] equal parts with the reference wake-up timed after each;
   p50_rel is the median over the parts of the part's median latency over
   its wake-up time.  The service's capacity is not an end-to-end metric
   here: on a shared 2-core machine the highest sustained rate moved by
   40-50% between runs of the same code, so it is reported per layer
   ([serve.max_rps]). *)
let segments = 10

let e2e_serve (svc, (m : Subject.model)) ~seconds ~setup_s out =
  let parts =
    List.init segments (fun _ ->
        let r =
          Loadgen.run svc ~rows:m.rows ~expect:m.expect ~rate:low_rate
            ~seconds:(seconds /. float_of_int segments)
        in
        (Loadgen.latency_us r (Loadgen.whole r), r, Reference.wake_us ()))
  in
  let sum f = List.fold_left (fun acc (_, r, _) -> acc + f r) 0 parts in
  let bad = sum Loadgen.failed + sum Loadgen.wrong in
  Report.tally out ~attempted:(sum Loadgen.sent) ~failed:(sum Loadgen.shed + bad)
    ~wrong:bad;
  let latency = Array.concat (List.map (fun (l, _, _) -> l) parts) in
  let late = Array.concat (List.map (fun (_, r, _) -> Loadgen.late_us r) parts) in
  let wakes = Array.of_list (List.map (fun (_, _, w) -> w) parts) in
  Report.note "%.0f requests/s: %d requests, generator p99 late %.1f us" low_rate
    (sum Loadgen.sent) (Sample.quantile late 0.99);
  Report.note "latency p50 %.1f us, p90 %.1f us, p99 %.1f us; reference wake-up p50 %.1f us"
    (Sample.median latency) (Sample.quantile latency 0.9)
    (Sample.quantile latency 0.99) (Sample.median wakes);
  Report.add out "p50_rel" "ratio"
    (Sample.median
       (Array.of_list (List.map (fun (l, _, w) -> Sample.median l /. w) parts)));
  add_common out ~setup_s

let e2e w ~seed ~nproc ~seconds out =
  let env, setup_s = timed_setup w ~seed ~nproc ~reps:3 in
  Fun.protect ~finally:env.teardown (fun () ->
      match env.service with
      | Some s -> e2e_serve s ~seconds ~setup_s out
      | None -> e2e_train env ~seconds ~setup_s out)

(* ---- per layer, traced ---- *)

let traced w ~seed ~nproc out =
  let env, _ = timed_setup w ~seed ~nproc ~reps:1 in
  Fun.protect ~finally:env.teardown (fun () ->
      let s = env.subject in
      let reference_sum = checksum env.first in
      let check r =
        let bad = checksum r <> reference_sum in
        Report.tally out ~attempted:1 ~failed:(Bool.to_int bad) ~wrong:(Bool.to_int bad)
      in
      let pairs = max 2 (min 7 (int_of_float (3.0 /. env.first_s))) in
      let ml = Probe.ml ~pairs ~check s in
      let pool1 = Par.Pool.create ~size:1 () in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown pool1)
        (fun () ->
          let op_us = Probe.executor s ~pool1 out in
          let seq_us = Probe.host_fused s ~pool1 out in
          Probe.pool s out;
          Probe.guard s out;
          Probe.dist s ~nproc ~seq_us out;
          Probe.gpu_sim s out;
          let serve svc m =
            Probe.serve svc m ~rates ~seconds:1.0 out;
            Probe.capacity svc m ~ladder out
          in
          (match env.service with
          | Some (svc, m) -> serve svc m
          | None ->
              let m = s.model env.first in
              let svc = Probe.start_service m ~pool1 in
              Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> serve svc m));
          Report.add out "ml.iters" "count" (float_of_int ml.iters);
          Report.add out "ml.ops_per_train" "count" (float_of_int ml.ops);
          Report.add out "ml.train_ms" "ms" (ml.untraced_us /. 1e3);
          Report.add out "ml.unattributed_frac" "ratio"
            (1.0 -. (float_of_int ml.ops *. op_us /. ml.untraced_us));
          Report.add out "trace.overhead_frac" "ratio" ml.overhead))
