(* Per-layer probes, run in the traced pass.  Each one calls a layer's
   public functions from outside on the workload's own inputs and times
   them with the monotonic clock; nothing inside lib/ is instrumented. *)

module Executor = Fusion.Executor
module Cluster = Kf_dist.Cluster
module Host_stats = Kf_obs.Host_stats

let span = Spans.with_span

(* ---- ml: a training run, untraced and traced, interleaved ----

   "Traced" turns on the library's own tracing ([Kf_obs.Trace], spans kept
   in memory) and the benchmark's span around the call.  The two runs of a
   pair are adjacent in time, so the per-pair ratio cancels most of a
   shared machine's drift. *)

type ml = {
  iters : int;
  ops : int;
  untraced_us : float;  (** median untraced training *)
  overhead : float;  (** median over pairs of traced / untraced - 1 *)
}

let ml ~pairs ~check (s : Subject.t) =
  let untraced = Array.make pairs 0.0 and traced = Array.make pairs 0.0 in
  let last = ref None in
  let spans = !Spans.on in
  for i = 0 to pairs - 1 do
    Spans.on := false;
    let r, ns = Mono.time_ns s.train in
    check r;
    untraced.(i) <- Mono.us ns;
    Kf_obs.Trace.enable ();
    Spans.on := true;
    let r, ns = Mono.time_ns (fun () -> span "ml.train" s.train) in
    Kf_obs.Trace.disable ();
    Kf_obs.Trace.clear ();
    check r;
    traced.(i) <- Mono.us ns;
    last := Some r
  done;
  Spans.on := spans;
  let r = Option.get !last in
  {
    iters = r.Subject.iters;
    ops = r.ops;
    untraced_us = Sample.median untraced;
    overhead = Sample.median (Array.map2 (fun t u -> (t /. u) -. 1.0) traced untraced);
  }

(* ---- executor, host_fused, pool, guard ---- *)

let executor (s : Subject.t) ~pool1 out =
  let add = Report.add out in
  let exec () =
    Subject.executor_op ~engine:s.engine ~pool:s.pool ?cluster:s.cluster s ()
  in
  let direct () =
    match s.cluster with
    | Some c -> Subject.cluster_op c s ()
    | None -> Subject.host_kernel ~pool:s.pool s ()
  in
  let op_us, _, dispatch_us =
    span "executor.op" (fun () -> Mono.interleaved ~budget_s:1.5 exec direct)
  in
  add "executor.op_us" "us" op_us;
  add "executor.dispatch_us" "us" dispatch_us;
  add "executor.dispatch_frac" "ratio" (dispatch_us /. op_us);
  let rows = Executor.rows s.input and cols = Executor.cols s.input in
  let y_rows = Array.init rows (fun i -> float_of_int (i mod 7) -. 3.0) in
  let xt_y_us =
    span "executor.xt_y" (fun () ->
        Mono.median_us ~budget_s:0.5 (fun () ->
            ignore
              (Executor.xt_y ~engine:s.engine ~pool:s.pool ?cluster:s.cluster
                 Subject.device s.input y_rows ~alpha:1.0)))
  in
  add "executor.xt_y_us" "us" xt_y_us;
  let w = Array.init cols (fun j -> float_of_int (j mod 5) -. 2.0) in
  List.iter
    (fun b ->
      let block = Subject.slice s ~rows:b in
      let us =
        span "executor.x_y" (fun () ->
            Mono.per_call_us ~reps:(max 20 (2000 / b)) (fun () ->
                Executor.x_y ~engine:Executor.Host ~pool:pool1 Subject.device
                  block w))
      in
      add (Printf.sprintf "executor.x_y_us.b%d" b) "us" us)
    [ 1; 32 ];
  (* ROADMAP item 3's "60% of per-op time is not pool work", re-measured
     with the library's spans off: the share of one host op's wall time
     outside worker 0's pool jobs. *)
  let host_op () = Subject.executor_op ~engine:Executor.Host ~pool:s.pool s () in
  let fracs =
    Array.init 7 (fun _ ->
        let st = Host_stats.create ~domains:(Par.Pool.size s.pool) in
        let _, ns = Mono.time_ns (fun () -> Host_stats.with_sink st host_op) in
        let job_ns = st.Host_stats.busy_ns.(0) + st.Host_stats.idle_ns.(0) in
        1.0 -. (float_of_int job_ns /. float_of_int ns))
  in
  add "executor.nonjob_frac" "ratio" (Sample.median fracs);
  op_us

let host_fused (s : Subject.t) ~pool1 out =
  let add = Report.add out in
  let par () = Subject.host_kernel ~pool:s.pool s () in
  let one () = Subject.host_kernel ~pool:pool1 s () in
  let op_us, one_us, _ =
    span "host_fused.op" (fun () -> Mono.interleaved ~budget_s:1.5 par one)
  in
  let seq_us =
    span "host_fused.seq" (fun () -> Mono.median_us ~budget_s:0.6 (Subject.sequential s))
  in
  let bytes, flops = Subject.traffic s in
  add "host_fused.op_us" "us" op_us;
  add "host_fused.seq_us" "us" seq_us;
  add "host_fused.speedup_vs_seq" "ratio" (seq_us /. op_us);
  add "host_fused.scaling" "ratio" (one_us /. op_us);
  add "host_fused.bytes_per_op" "B" (float_of_int bytes);
  add "host_fused.flops_per_byte" "flop/B" (float_of_int flops /. float_of_int bytes);
  add "host_fused.gbps" "GB/s" (float_of_int bytes /. (op_us *. 1e3));
  seq_us

let pool (s : Subject.t) out =
  let add = Report.add out in
  let p = s.pool in
  add "pool.wake_join_us" "us"
    (span "pool.wake_join" (fun () ->
         Mono.per_call_us ~reps:500 (fun () -> Par.Pool.run_workers p (fun _ -> ()))));
  let ops = 5 in
  let st = Host_stats.create ~domains:(Par.Pool.size p) in
  span "pool.stats" (fun () ->
      Host_stats.with_sink st (fun () ->
          for _ = 1 to ops do
            Subject.executor_op ~engine:Executor.Host ~pool:p s ()
          done));
  let per v = float_of_int v /. float_of_int ops in
  add "pool.jobs_per_op" "count" (per st.jobs);
  add "pool.acc_allocs_per_op" "count" (per st.acc_allocations);
  add "pool.acc_bytes_per_op" "B" (per st.acc_bytes);
  add "pool.merge_bytes_per_op" "B" (per st.merge_bytes);
  add "pool.layout_builds_per_op" "count" (per st.layout_builds);
  add "pool.imbalance" "ratio" (Host_stats.load_imbalance st);
  let sum a = Array.fold_left ( + ) 0 a in
  let busy = sum st.busy_ns and idle = sum st.idle_ns in
  add "pool.idle_frac" "ratio"
    (if busy + idle = 0 then 0.0 else float_of_int idle /. float_of_int (busy + idle))

let guard (s : Subject.t) out =
  let v = Array.init (Subject.output_length s) (fun i -> float_of_int i) in
  Report.add out "guard.check_us" "us"
    (span "guard.check" (fun () ->
         Kf_resil.Guard.with_enabled true (fun () ->
             Mono.per_call_us
               ~reps:(max 10 (200_000 / Array.length v))
               (fun () -> Kf_resil.Guard.check_vec ~point:"perfbench" v))))

(* ---- dist: a fresh cluster on the subject's matrix ---- *)

let dist (s : Subject.t) ~nproc ~seq_us out =
  let add = Report.add out in
  let c = span "dist.spawn" (fun () -> Cluster.create ~workers:nproc ()) in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown c)
    (fun () ->
      let op = Subject.cluster_op c s in
      let first_us = span "dist.first_op" (fun () -> Mono.time_us op) in
      let n = Mono.rounds ~budget_s:1.0 ~est_us:(Mono.time_us op) in
      (* pulling the compute histograms costs frames of its own, so the
         byte counters are read inside the two pulls *)
      let h0 = Cluster.worker_compute c in
      let st0 = Cluster.stats c in
      let times = span "dist.ops" (fun () -> Array.init n (fun _ -> Mono.time_us op)) in
      let st1 = Cluster.stats c in
      let h1 = Cluster.worker_compute c in
      let op_us = Sample.median times in
      let per v = float_of_int v /. float_of_int n in
      let sent = per (st1.st_bytes_sent - st0.st_bytes_sent)
      and received = per (st1.st_bytes_received - st0.st_bytes_received) in
      let compute_us =
        Kf_obs.Histogram.mean (Kf_obs.Histogram.diff ~after:h1 ~before:h0)
      in
      let mode_15d = st1.st_last_mode = "1.5d" in
      let model = span "dist.calibrate" (fun () -> Cluster.calibrate c) in
      (* frames of this op's sizes through the codec.  On the op's
         critical path the coordinator encodes every request, the last
         worker decodes its request and encodes its reply, and the
         coordinator decodes that last reply (earlier replies are decoded
         while the last worker still computes). *)
      let cols = Executor.cols s.input in
      let y, v, _, _ = Subject.eq1_args s in
      (* each worker receives [y] whole and its shard's slice of [v] *)
      let v = Option.map (fun v -> Array.sub v 0 (Array.length v / nproc)) v in
      let req = Kf_dist.Wire.Pattern { mid = 1; y; v } in
      let reply =
        if mode_15d then begin
          let width = Kf_dist.Netmodel.block_cols_of_env () in
          let blocks =
            max 1
              (st1.st_bytes_15d / nproc / Kf_dist.Netmodel.block_bytes ~width)
          in
          Kf_dist.Wire.Blocks
            {
              cols;
              ids = Array.init blocks Fun.id;
              values = Array.make (blocks * width) 0.5;
              compute_ns = 1;
            }
        end
        else Kf_dist.Wire.Partial { w = Array.make cols 0.5; compute_ns = 1 }
      in
      let codec msg =
        let frame = Kf_dist.Wire.encode msg in
        let reps = max 5 (2_000_000 / (String.length frame + 1)) in
        ( Mono.per_call_us ~reps (fun () -> Kf_dist.Wire.encode msg),
          Mono.per_call_us ~reps (fun () -> Kf_dist.Wire.decode frame) )
      in
      let enc_req, dec_req = span "dist.codec" (fun () -> codec req) in
      let enc_rep, dec_rep = span "dist.codec" (fun () -> codec reply) in
      let encode_us = (float_of_int nproc *. enc_req) +. enc_rep
      and decode_us = dec_req +. dec_rep in
      let bytes = int_of_float (sent +. received) in
      let pred =
        Kf_dist.Netmodel.op_us model ~workers:nproc
          ~scatter_bytes:(int_of_float sent) ~gather_bytes:(int_of_float received)
          ~compute_us
      in
      let xfer =
        Kf_dist.Netmodel.xfer_us model ~msgs:(2 * nproc) ~bytes
      in
      add "dist.op_us" "us" op_us;
      add "dist.worker_compute_us" "us" compute_us;
      add "dist.encode_us" "us" encode_us;
      add "dist.decode_us" "us" decode_us;
      add "dist.bytes_per_op" "B" (float_of_int bytes);
      add "dist.mode_15d" "bool" (if mode_15d then 1.0 else 0.0);
      add "dist.model_pred_us" "us" pred;
      add "dist.model_ratio" "ratio" (op_us /. pred);
      add "dist.unexplained_us" "us"
        (op_us -. compute_us -. encode_us -. decode_us -. xfer);
      add "dist.seq_us" "us" seq_us;
      add "dist.ship_ms" "ms" ((first_us -. op_us) /. 1e3))

(* ---- gpu_sim: one pattern op on the simulated engines ---- *)

let gpu_slice_rows = 2048

let gpu_sim (s : Subject.t) out =
  let add = Report.add out in
  let input = Subject.slice s ~rows:gpu_slice_rows in
  let cols = Executor.cols input and rows = Executor.rows input in
  let y = Array.init cols (fun j -> float_of_int (j mod 9) /. 9.0) in
  let z = Array.make cols 1.0 in
  let v =
    match s.op with
    | Subject.Eq1 { v = Some _; _ } -> Some (Array.make rows 0.25)
    | _ -> None
  in
  let run engine =
    span "gpu_sim.pattern" (fun () ->
        let r =
          Executor.pattern ~engine Subject.device input ~y ?v ~beta_z:(0.001, z)
            ~alpha:1.0 ()
        in
        let dram =
          List.fold_left
            (fun acc (rep : Gpu_sim.Sim.report) ->
              acc + Gpu_sim.Stats.total_dram_transactions rep.stats)
            0 r.reports
        in
        (r.time_ms, dram))
  in
  let fused_ms, fused_tx = run Executor.Fused in
  let library_ms, library_tx = run Executor.Library in
  add "gpu_sim.fused_ms" "ms" fused_ms;
  add "gpu_sim.library_ms" "ms" library_ms;
  add "gpu_sim.fused_speedup" "ratio" (library_ms /. fused_ms);
  add "gpu_sim.dram_tx.fused" "count" (float_of_int fused_tx);
  add "gpu_sim.dram_tx.library" "count" (float_of_int library_tx)

(* ---- serve: the workload's model behind a service, at three rates ---- *)

let serve_config = Kf_serve.Service.default_config

let start_service (m : Subject.model) ~pool1 =
  Kf_serve.Service.create ~engine:Executor.Host ~pool:pool1 ~config:serve_config
    Subject.device ~algo:m.algo ~weights:m.weights ()

let serve svc (m : Subject.model) ~rates ~seconds out =
  let add = Report.add out in
  let run ~rate ~seconds =
    Loadgen.run svc ~rows:m.rows ~expect:m.expect ~rate ~seconds
  in
  ignore
    (span "serve.warmup" (fun () ->
         run ~rate:(fst (List.hd rates)) ~seconds:0.2));
  List.iter
    (fun (rate, label) ->
      let before = Kf_serve.Service.stats svc in
      let r = span ("serve." ^ label) (fun () -> run ~rate ~seconds) in
      let after = Kf_serve.Service.stats svc in
      let q =
        Kf_obs.Histogram.diff ~after:after.queue_us ~before:before.queue_us
      in
      let batches = after.batches - before.batches in
      let per_batch v = v /. float_of_int (max 1 batches) in
      let key k = Printf.sprintf "serve.%s.%s" k label in
      add (key "latency_us.p50") "us" (Sample.median (Loadgen.latency_us r (Loadgen.whole r)));
      add (key "latency_us.p99") "us" (Loadgen.p99 r);
      add (key "queue_us.p50") "us" (Kf_obs.Histogram.quantile q 0.5);
      add (key "queue_us.p99") "us" (Kf_obs.Histogram.quantile q 0.99);
      add (key "batch_rows") "rows"
        (per_batch (float_of_int (after.accepted - before.accepted)));
      add (key "exec_us_per_batch") "us"
        (per_batch ((after.exec_ms -. before.exec_ms) *. 1e3));
      add (key "window_us") "us" (Loadgen.mean_window_us r);
      add (key "shed_frac") "ratio"
        (float_of_int (Loadgen.shed r) /. float_of_int (Loadgen.sent r));
      add (key "gen_late_us.p99") "us" (Sample.quantile (Loadgen.late_us r) 0.99);
      if Loadgen.late r then
        Report.note "generator late at %s (%.0f rps): p99 lateness %.0f us" label
          rate
          (Sample.quantile (Loadgen.late_us r) 0.99);
      (* a probe's sheds show in its shed_frac; only failed and wrong
         requests count against the run *)
      let bad = Loadgen.failed r + Loadgen.wrong r in
      Report.tally out ~attempted:(Loadgen.sent r) ~failed:bad ~wrong:bad)
    rates

(* serve_max_rps: the highest rung of [ladder] the service
   sustains (see [Loadgen.sustained]), by bisection with probes of 0.4 s
   and at least 2,000 requests.  On a shared machine it moves by tens of
   percent from run to run with the neighbours' load, which is why it is
   not an end-to-end metric. *)
let capacity svc (m : Subject.model) ~ladder out =
  let probe rate =
    span "serve.capacity_probe" (fun () ->
        Loadgen.run svc ~rows:m.rows ~expect:m.expect ~rate
          ~seconds:(Float.max 0.4 (2000.0 /. rate)))
  in
  let max_rps, probes = Loadgen.max_rate probe ladder in
  List.iter
    (fun (r : Loadgen.result) ->
      Report.note
        "ladder %.0f rps: sent at %.0f rps, service p99 %.0f us, backlog \
         growth %.1f, shed %d, %s"
        r.rate (Loadgen.achieved r)
        (Loadgen.windowed r Loadgen.service_us 0.99)
        (Loadgen.backlog_growth r) (Loadgen.shed r)
        (if Loadgen.sustained r then "sustained" else "not sustained");
      let bad = Loadgen.failed r + Loadgen.wrong r in
      Report.tally out ~attempted:(Loadgen.sent r) ~failed:bad ~wrong:bad)
    probes;
  Report.add out "serve.max_rps" "1/s" max_rps
