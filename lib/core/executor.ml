open Gpu_sim

let log_src = Logs.Src.create "fusion.executor" ~doc:"pattern dispatch"

module Log = (val Logs.src_log log_src : Logs.LOG)

type engine = Fused | Library | Host | Dist

type input = Sparse of Matrix.Csr.t | Dense of Matrix.Dense.t

type profile = {
  op : string;
  decision : string;
  p_rows : int;
  p_cols : int;
  p_nnz : int;
  wall_ns : int;
  host : Kf_obs.Host_stats.t option;
}

type result = {
  w : Matrix.Vec.t;
  reports : Sim.report list;
  time_ms : float;
  instantiation : Pattern.instantiation option;
  engine_used : string;
  profile : profile;
  checked : bool;
}

let rows = function
  | Sparse x -> x.Matrix.Csr.rows
  | Dense x -> x.Matrix.Dense.rows

let cols = function
  | Sparse x -> x.Matrix.Csr.cols
  | Dense x -> x.Matrix.Dense.cols

let bytes = function
  | Sparse x -> Matrix.Csr.bytes x
  | Dense x -> Matrix.Dense.bytes x

let nnz = function
  | Sparse x -> Matrix.Csr.nnz x
  | Dense x -> x.Matrix.Dense.rows * x.Matrix.Dense.cols

let ops_counter = Kf_obs.Counter.make "executor.ops"

let host_ops_counter = Kf_obs.Counter.make "executor.host_ops"

(* Every public entry point records its start first, so [wall_ns] covers
   dispatch plus execution for all three engines (for the simulated
   engines it is the time spent simulating; for the host engine it is
   the op's real wall-clock time, which [time_ms] also reports). *)
let mk_profile ~op ~input ~decision ~t0 ~host =
  let wall_ns = Kf_obs.Clock.now_ns () - t0 in
  let profile =
    {
      op;
      decision;
      p_rows = rows input;
      p_cols = cols input;
      p_nnz = nnz input;
      wall_ns;
      host;
    }
  in
  Kf_obs.Counter.incr ops_counter;
  Kf_obs.Trace.complete
    ~name:("executor." ^ op)
    ~args:
      [
        ("decision", decision);
        ("rows", string_of_int profile.p_rows);
        ("cols", string_of_int profile.p_cols);
        ("nnz", string_of_int profile.p_nnz);
      ]
    ~ts_ns:t0 ~dur_ns:wall_ns ();
  profile

let finish ~op ~input ~t0 ~instantiation ~engine_used w reports =
  let time_ms = Sim.total_ms reports in
  Log.debug (fun m ->
      m "%s: %d kernel(s), %.3f ms" engine_used (List.length reports) time_ms);
  let profile = mk_profile ~op ~input ~decision:engine_used ~t0 ~host:None in
  { w; reports; time_ms; instantiation; engine_used; profile; checked = false }

(* The host backend runs for real, so [time_ms] is measured wall-clock
   rather than simulated device time, and there are no kernel reports.
   Each op gets a fresh [Host_stats] installed as the ambient sink, so
   the pool, the fused host kernels and the parallel BLAS record into
   it; the per-op stats ride back on [profile.host].  [checked] says
   whether the kernel checked its own output (see [kernel_guard]). *)
let finish_host ~op ~input ~t0 ~instantiation ~engine_used ~pool
    ?(checked = false) f =
  let stats = Kf_obs.Host_stats.create ~domains:(Par.Pool.size pool) in
  let w = Kf_obs.Host_stats.with_sink stats f in
  (* Fold per-op stats into any enclosing ambient sink (e.g. the CLI's
     run-wide aggregate) that was shadowed while this op executed. *)
  (match Kf_obs.Host_stats.current () with
  | Some outer -> Kf_obs.Host_stats.accumulate ~into:outer stats
  | None -> ());
  let profile =
    mk_profile ~op ~input ~decision:engine_used ~t0 ~host:(Some stats)
  in
  Kf_obs.Host_stats.emit_trace_counters stats;
  Kf_obs.Counter.incr host_ops_counter;
  let time_ms = Kf_obs.Clock.ns_to_ms profile.wall_ns in
  Log.debug (fun m -> m "%s: %.3f ms wall-clock" engine_used time_ms);
  { w; reports = []; time_ms; instantiation; engine_used; profile; checked }

let host_pool = function Some p -> p | None -> Par.Pool.default ()

(* The dist engine runs for real in worker processes, so like [Host] its
   [time_ms] is wall-clock and it produces no kernel reports; its
   [engine_used] string (mode + worker count) is read back from the
   cluster after the op, when the shard map has fixed the 1D/1.5D
   choice. *)
let dist_ops_counter = Kf_obs.Counter.make "executor.dist_ops"

let dist_cluster = function
  | Some c -> c
  | None -> Kf_dist.Cluster.default ()

let finish_dist ~op ~input ~t0 ~instantiation ~cluster f =
  let w = f () in
  let engine_used = Kf_dist.Cluster.describe cluster in
  let profile = mk_profile ~op ~input ~decision:engine_used ~t0 ~host:None in
  Kf_obs.Counter.incr dist_ops_counter;
  let time_ms = Kf_obs.Clock.ns_to_ms profile.wall_ns in
  Log.debug (fun m -> m "%s: %.3f ms wall-clock" engine_used time_ms);
  {
    w;
    reports = [];
    time_ms;
    instantiation;
    engine_used;
    profile;
    checked = false;
  }

(* --- guarded dispatch ----------------------------------------------------- *)

(* Recovery plumbing: every public op runs through [guarded], which
   (when fault injection or numerical guards are active) arms the fault
   points below this layer, checks the output's health, and walks a
   bounded retry-with-fallback chain — retry the same engine once, step
   down Host/Fused -> Library, and as a last resort run the sequential
   reference BLAS, which depends on nothing that can be injected.  With
   faults inactive *and* guards disabled this collapses to a direct
   call. *)

let retries_counter = Kf_obs.Counter.make "resil.retries"

let fallbacks_counter = Kf_obs.Counter.make "resil.fallbacks"

let reference_counter = Kf_obs.Counter.make "resil.reference_runs"

(* The one spelling of engine names: [bin/kf]'s flag parsing, the
   KF_ENGINE environment handling and the bench suites all go through
   this pair rather than keeping private copies. *)
let engines = [ Fused; Library; Host; Dist ]

let engine_to_string = function
  | Fused -> "fused"
  | Library -> "library"
  | Host -> "host"
  | Dist -> "dist"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "fused" -> Some Fused
  | "library" -> Some Library
  | "host" -> Some Host
  | "dist" -> Some Dist
  | _ -> None

let engine_name = engine_to_string

(* One retry on the engine the caller asked for, then progressively
   simpler engines: the multi-process tier falls back to single-process
   Host, and Library is the floor among engines because it is a chain of
   independent single-kernel launches. *)
let attempt_plan engine =
  let tail =
    match engine with
    | Dist -> [ Host; Library ]
    | Host | Fused -> [ Library ]
    | Library -> []
  in
  engine :: engine :: tail

let describe_failure = function
  | Kf_resil.Fault.Injected { kind; point } ->
      Printf.sprintf "injected %s fault at %s" (Kf_resil.Fault.kind_name kind)
        point
  | Kf_resil.Guard.Unhealthy { index; value; point } ->
      Printf.sprintf "non-finite output (w.(%d) = %h) at %s" index value point
  | e -> Printexc.to_string e

let reference_result ~op ~input ~t0 ~instantiation w =
  let engine_used = "reference sequential blas" in
  let profile = mk_profile ~op ~input ~decision:engine_used ~t0 ~host:None in
  {
    w;
    reports = [];
    time_ms = Kf_obs.Clock.ns_to_ms profile.wall_ns;
    instantiation;
    engine_used;
    profile;
    checked = false;
  }

(* The guard point a host kernel checks its output against: only when
   [guarded] would scan the result anyway (guards on) and nothing
   writes it after dispatch (no fault rule active). *)
let kernel_guard op =
  if Kf_resil.Guard.enabled () && not (Kf_resil.Fault.active ()) then
    Some ("executor." ^ op)
  else None

(* Polymorphic over the result record — Equation-1 ops guard a vector
   result, the graph ops a matrix one; [vec_of] projects the raw float
   payload the fault injector poisons and the guard inspects.  The scan
   is skipped for a result that [checked] says the host kernel already
   checked (see [kernel_guard]); fault poisoning writes after dispatch,
   so under an active fault rule every result is scanned here. *)
let guarded ~op ~engine ~vec_of ~checked ~dispatch ~reference =
  let faults = Kf_resil.Fault.active () in
  if not (faults || Kf_resil.Guard.enabled ()) then dispatch engine
  else
    let point = "executor." ^ op in
    let attempt e =
      Kf_resil.Fault.with_arm @@ fun () ->
      Kf_resil.Fault.check Kf_resil.Fault.Launch ~point;
      let r = dispatch e in
      if faults then Kf_resil.Fault.poison ~point (vec_of r);
      if faults || not (checked r) then
        Kf_resil.Guard.check_vec ~point (vec_of r);
      r
    in
    let note verb e exn =
      let cause = describe_failure exn in
      Kf_obs.Trace.instant ("resil." ^ verb)
        ~args:[ ("op", op); ("engine", engine_name e); ("cause", cause) ];
      Log.warn (fun m -> m "%s after %s on %s %s" verb cause (engine_name e) op)
    in
    let rec run = function
      | [] ->
          Kf_obs.Counter.incr reference_counter;
          let r = reference () in
          (* if even the reference output is unhealthy the data itself is
             bad: surface it rather than return garbage *)
          Kf_resil.Guard.check_vec ~point:(point ^ ".reference") (vec_of r);
          r
      | e :: rest -> (
          try attempt e
          with (Kf_resil.Fault.Injected _ | Kf_resil.Guard.Unhealthy _) as exn
            ->
            (match rest with
            | e' :: _ when e' = e ->
                Kf_obs.Counter.incr retries_counter;
                note "retry" e exn
            | _ ->
                Kf_obs.Counter.incr fallbacks_counter;
                note "fallback" e exn);
            run rest)
    in
    run (attempt_plan engine)

let host_engine_used ~kernel ~pool ~variant =
  Printf.sprintf "host %s [%s, %d domain%s]" kernel
    (Host_fused.variant_name variant)
    (Par.Pool.size pool)
    (if Par.Pool.size pool = 1 then "" else "s")

(* Library composition for the trailing BLAS-1 work: w <- alpha*w, then
   optionally w <- w + beta*z (two more kernel launches). *)
let library_epilogue device ~alpha ~beta_z w reports =
  let w, r1 =
    if alpha = 1.0 then (w, []) else Gpulibs.Cublas.scal device alpha w
  in
  match beta_z with
  | None -> (w, reports @ r1)
  | Some (beta, z) ->
      let bz, r2 = Gpulibs.Cublas.scal device beta z in
      let w, r3 = Gpulibs.Cublas.axpy device 1.0 bz w in
      (w, reports @ r1 @ r2 @ r3)

let xt_y ?(engine = Fused) ?pool ?cluster device input y ~alpha =
  let t0 = Kf_obs.Clock.now_ns () in
  let op = "xt_y" in
  let finish = finish ~op ~input ~t0 in
  let finish_host = finish_host ~op ~input ~t0 in
  let finish_dist = finish_dist ~op ~input ~t0 in
  let instantiation =
    Some
      (Pattern.classify_shape
         { first_multiply = false; weighted = false; additive_tail = false })
  in
  let reference () =
    let w =
      match input with
      | Sparse x -> Matrix.Blas.csrmv_t x y
      | Dense x -> Matrix.Blas.gemv_t x y
    in
    let w = Matrix.Blas.finish_pattern ~alpha ~beta:None ~z:None w in
    reference_result ~op ~input ~t0 ~instantiation w
  in
  let guard = kernel_guard op in
  let rec dispatch engine =
  match (engine, input) with
  | Dist, _ -> (
      try
        let c = dist_cluster cluster in
        finish_dist ~instantiation ~cluster:c (fun () ->
            match input with
            | Sparse x -> Kf_dist.Cluster.xt_y_sparse c x ~y ~alpha
            | Dense x -> Kf_dist.Cluster.xt_y_dense c x ~y ~alpha)
      with Kf_dist.Cluster.Unavailable msg ->
        Log.warn (fun m ->
            m "dist engine unavailable (%s); falling back to host" msg);
        dispatch Host)
  | Host, Sparse x ->
      let pool = host_pool pool in
      let variant =
        Host_fused.choose_variant ~domains:(Par.Pool.size pool)
          ~cols:x.Matrix.Csr.cols ()
      in
      finish_host ~instantiation
        ~engine_used:(host_engine_used ~kernel:"fused X^T*p" ~pool ~variant)
        ~pool ~checked:(guard <> None)
        (fun () -> Host_fused.xt_p ~pool ~variant ?guard ~alpha x y)
  | Host, Dense x ->
      (* Mirrors the Fused/Library dense dispatch: X^T*y is a single
         pass already, so the "library" gemv_t is used, parallelised. *)
      let pool = host_pool pool in
      finish_host ~instantiation
        ~engine_used:
          (Printf.sprintf "host par_gemv_t [%d domains]" (Par.Pool.size pool))
        ~pool
        (fun () ->
          let w = Matrix.Blas.par_gemv_t ~pool x y in
          Matrix.Vec.scal alpha w;
          w)
  | Fused, Sparse x ->
      let w, reports, plan = Fused_sparse.xt_p device x y ~alpha in
      finish ~instantiation
        ~engine_used:
          (if plan.sp_large_n then "fused sparse X^T*p (large-n)"
           else "fused sparse X^T*p")
        w reports
  | Library, Sparse x ->
      let w, reports = Gpulibs.Cusparse.csrmv_t device x y in
      let w, reports = library_epilogue device ~alpha ~beta_z:None w reports in
      finish ~instantiation ~engine_used:"cusparse csrmv (transpose mode)" w
        reports
  | (Fused | Library), Dense x ->
      (* The paper does not fuse X^T*y for dense data: cuBLAS's gemv is
         already a single pass. *)
      let w, reports = Gpulibs.Cublas.gemv_t device x y in
      let w, reports = library_epilogue device ~alpha ~beta_z:None w reports in
      finish ~instantiation ~engine_used:"cublas gemv (transpose)" w reports
  in
  guarded ~op ~engine ~vec_of:(fun r -> r.w) ~checked:(fun r -> r.checked)
    ~reference ~dispatch

let library_pattern device input ~y ?v ?beta_z ~alpha () =
  let p, reports =
    match input with
    | Sparse x -> Gpulibs.Cusparse.csrmv device x y
    | Dense x -> Gpulibs.Cublas.gemv device x y
  in
  let p, reports =
    match v with
    | None -> (p, reports)
    | Some v ->
        let p, r = Gpulibs.Cublas.mul_elementwise device v p in
        (p, reports @ r)
  in
  let w, reports =
    match input with
    | Sparse x ->
        let w, r = Gpulibs.Cusparse.csrmv_t device x p in
        (w, reports @ r)
    | Dense x ->
        let w, r = Gpulibs.Cublas.gemv_t device x p in
        (w, reports @ r)
  in
  library_epilogue device ~alpha ~beta_z w reports

(* [out] for the engines whose kernels cannot write into it: their
   fresh result is copied over, so every attempt of the recovery chain
   (and the reference floor) hands back the caller's vector. *)
let into out r =
  match out with
  | Some o when r.w != o ->
      Array.blit r.w 0 o 0 (Array.length o);
      { r with w = o }
  | _ -> r

let pattern ?(engine = Fused) ?pool ?cluster ?out device input ~y ?v ?beta_z
    ~alpha () =
  let t0 = Kf_obs.Clock.now_ns () in
  let op = "pattern" in
  let finish = finish ~op ~input ~t0 in
  let finish_host = finish_host ~op ~input ~t0 in
  let finish_dist = finish_dist ~op ~input ~t0 in
  let instantiation =
    Some
      (Pattern.classify_shape
         {
           first_multiply = true;
           weighted = v <> None;
           additive_tail = beta_z <> None;
         })
  in
  let beta, z =
    match beta_z with None -> (None, None) | Some (b, z) -> (Some b, Some z)
  in
  Option.iter
    (Host_fused.check_out ~name:"Executor.pattern" ~cols:(cols input) ~y ~v ~z)
    out;
  let reference () =
    let w =
      match input with
      | Sparse x -> Matrix.Blas.pattern_sparse ~alpha x ?v y ?beta ?z ()
      | Dense x -> Matrix.Blas.pattern_dense ~alpha x ?v y ?beta ?z ()
    in
    into out (reference_result ~op ~input ~t0 ~instantiation w)
  in
  let guard = kernel_guard op in
  let rec dispatch engine =
  match (engine, input) with
  | Dist, _ -> (
      try
        let c = dist_cluster cluster in
        finish_dist ~instantiation ~cluster:c (fun () ->
            match input with
            | Sparse x ->
                Kf_dist.Cluster.pattern_sparse c x ~y ?v ?beta_z ~alpha ()
            | Dense x ->
                Kf_dist.Cluster.pattern_dense c x ~y ?v ?beta_z ~alpha ())
      with Kf_dist.Cluster.Unavailable msg ->
        Log.warn (fun m ->
            m "dist engine unavailable (%s); falling back to host" msg);
        dispatch Host)
  | Host, Sparse x ->
      let pool = host_pool pool in
      let variant =
        Host_fused.choose_variant ~domains:(Par.Pool.size pool)
          ~cols:x.Matrix.Csr.cols ()
      in
      finish_host ~instantiation
        ~engine_used:(host_engine_used ~kernel:"fused sparse" ~pool ~variant)
        ~pool ~checked:(guard <> None)
        (fun () ->
          Host_fused.pattern_sparse ~pool ~variant ?out ?guard ~alpha x ?v y
            ?beta ?z ())
  | Host, Dense x ->
      let pool = host_pool pool in
      let variant =
        Host_fused.choose_variant ~domains:(Par.Pool.size pool)
          ~cols:x.Matrix.Dense.cols ()
      in
      finish_host ~instantiation
        ~engine_used:(host_engine_used ~kernel:"fused dense" ~pool ~variant)
        ~pool ~checked:(guard <> None)
        (fun () ->
          Host_fused.pattern_dense ~pool ~variant ?out ?guard ~alpha x ?v y
            ?beta ?z ())
  | Fused, Sparse x ->
      let w, reports, plan =
        Fused_sparse.pattern device x ~y ?v ?beta_z ~alpha ()
      in
      finish ~instantiation
        ~engine_used:
          (if plan.sp_large_n then "fused sparse (large-n)" else "fused sparse")
        w reports
  | Fused, Dense x -> begin
      match Fused_dense.pattern device x ~y ?v ?beta_z ~alpha () with
      | w, reports, _plan, spec ->
          finish ~instantiation
            ~engine_used:("fused dense " ^ Codegen.kernel_name spec)
            w reports
      | exception Invalid_argument _ ->
          (* Columns beyond the register budget: the paper prescribes
             falling back to two cuBLAS launches (Section 3.2). *)
          let w, reports = library_pattern device input ~y ?v ?beta_z ~alpha () in
          finish ~instantiation
            ~engine_used:"cublas fallback (columns exceed register budget)" w
            reports
    end
  | Library, (Sparse _ | Dense _) ->
      let w, reports = library_pattern device input ~y ?v ?beta_z ~alpha () in
      let engine_used =
        match input with
        | Sparse _ -> "cusparse csrmv + csrmv_t (+ cublas level-1)"
        | Dense _ -> "cublas gemv + gemv_t (+ level-1)"
      in
      finish ~instantiation ~engine_used w reports
  in
  guarded ~op ~engine ~vec_of:(fun r -> r.w) ~checked:(fun r -> r.checked)
    ~reference
    ~dispatch:(fun e -> into out (dispatch e))

let x_y ?(engine = Fused) ?pool ?cluster device input y =
  let t0 = Kf_obs.Clock.now_ns () in
  let op = "x_y" in
  let finish = finish ~op ~input ~t0 in
  let finish_host = finish_host ~op ~input ~t0 in
  let finish_dist = finish_dist ~op ~input ~t0 in
  let instantiation = None in
  let reference () =
    let w =
      match input with
      | Sparse x -> Matrix.Blas.csrmv x y
      | Dense x -> Matrix.Blas.gemv x y
    in
    reference_result ~op ~input ~t0 ~instantiation w
  in
  let rec dispatch engine =
  match (engine, input) with
  | Dist, _ -> (
      try
        let c = dist_cluster cluster in
        finish_dist ~instantiation ~cluster:c (fun () ->
            match input with
            | Sparse x -> Kf_dist.Cluster.x_y_sparse c x y
            | Dense x -> Kf_dist.Cluster.x_y_dense c x y)
      with Kf_dist.Cluster.Unavailable msg ->
        Log.warn (fun m ->
            m "dist engine unavailable (%s); falling back to host" msg);
        dispatch Host)
  | Host, Sparse x ->
      let pool = host_pool pool in
      finish_host ~instantiation
        ~engine_used:
          (Printf.sprintf "host par_csrmv [%d domains]" (Par.Pool.size pool))
        ~pool
        (fun () -> Matrix.Blas.par_csrmv ~pool x y)
  | Host, Dense x ->
      let pool = host_pool pool in
      finish_host ~instantiation
        ~engine_used:
          (Printf.sprintf "host par_gemv [%d domains]" (Par.Pool.size pool))
        ~pool
        (fun () -> Matrix.Blas.par_gemv ~pool x y)
  | (Fused | Library), Sparse x ->
      let w, reports = Gpulibs.Cusparse.csrmv device x y in
      finish ~instantiation ~engine_used:"cusparse csrmv" w reports
  | (Fused | Library), Dense x ->
      let w, reports = Gpulibs.Cublas.gemv device x y in
      finish ~instantiation ~engine_used:"cublas gemv" w reports
  in
  guarded ~op ~engine ~vec_of:(fun r -> r.w) ~checked:(fun r -> r.checked)
    ~reference ~dispatch

(* --- graph ops: the fusedmm family ----------------------------------------- *)

(* The graph entry points return matrices (sparse S or dense Z) rather
   than a vector, and carry a family-generic descriptor instead of an
   Equation-1 instantiation; everything else — profiles, engine
   strings, the guarded recovery chain — is shared with the vector
   ops. *)
type mat_result = {
  m_value : input;
  m_reports : Sim.report list;
  m_time_ms : float;
  m_desc : Pattern_family.descriptor option;
  m_engine_used : string;
  m_profile : profile;
  m_checked : bool;
}

let mat_vec r =
  match r.m_value with
  | Sparse s -> s.Matrix.Csr.values
  | Dense d -> d.Matrix.Dense.data

let finish_mat ~op ~input ~t0 ~desc ~engine_used value reports =
  let time_ms = Sim.total_ms reports in
  Log.debug (fun m ->
      m "%s: %d kernel(s), %.3f ms" engine_used (List.length reports) time_ms);
  let profile = mk_profile ~op ~input ~decision:engine_used ~t0 ~host:None in
  {
    m_value = value;
    m_reports = reports;
    m_time_ms = time_ms;
    m_desc = desc;
    m_engine_used = engine_used;
    m_profile = profile;
    m_checked = false;
  }

let finish_mat_host ~op ~input ~t0 ~desc ~engine_used ~pool ~checked f =
  let stats = Kf_obs.Host_stats.create ~domains:(Par.Pool.size pool) in
  let value = Kf_obs.Host_stats.with_sink stats f in
  (match Kf_obs.Host_stats.current () with
  | Some outer -> Kf_obs.Host_stats.accumulate ~into:outer stats
  | None -> ());
  let profile =
    mk_profile ~op ~input ~decision:engine_used ~t0 ~host:(Some stats)
  in
  Kf_obs.Host_stats.emit_trace_counters stats;
  Kf_obs.Counter.incr host_ops_counter;
  let time_ms = Kf_obs.Clock.ns_to_ms profile.wall_ns in
  Log.debug (fun m -> m "%s: %.3f ms wall-clock" engine_used time_ms);
  {
    m_value = value;
    m_reports = [];
    m_time_ms = time_ms;
    m_desc = desc;
    m_engine_used = engine_used;
    m_profile = profile;
    m_checked = checked;
  }

let reference_mat ~op ~input ~t0 ~desc value =
  let engine_used = "reference sequential fusedmm" in
  let profile = mk_profile ~op ~input ~decision:engine_used ~t0 ~host:None in
  {
    m_value = value;
    m_reports = [];
    m_time_ms = Kf_obs.Clock.ns_to_ms profile.wall_ns;
    m_desc = desc;
    m_engine_used = engine_used;
    m_profile = profile;
    m_checked = false;
  }

(* [into] for the dense graph results: one not written in place is
   copied over [out]. *)
let into_mat out r =
  match (out, r.m_value) with
  | Some (o : Matrix.Dense.t), Dense z when z != o ->
      Array.blit z.data 0 o.data 0 (Array.length o.data);
      { r with m_value = Dense o }
  | _ -> r

let graph_host_used ~kernel ~pool =
  Printf.sprintf "host %s [row-disjoint, %d domain%s]" kernel
    (Par.Pool.size pool)
    (if Par.Pool.size pool = 1 then "" else "s")

(* Graph ops are not sharded yet, so [Dist] defers to the host kernels.
   That fallback is permanent: warn once per process per op, not per
   call. *)
let dist_warned = Atomic.make []

let rec warn_no_dist_kernels op =
  let seen = Atomic.get dist_warned in
  if List.mem op seen then ()
  else if Atomic.compare_and_set dist_warned seen (op :: seen) then
    Log.warn (fun m ->
        m "dist engine has no %s kernels; falling back to host" op)
  else warn_no_dist_kernels op

let fusedmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) ?out device
    inst (g : Matrix.Csr.t) (h : Matrix.Dense.t) =
  let name = "Executor.fusedmm" in
  Fusedmm.check ~name inst g h;
  Option.iter (Host_fused.check_graph_out ~name ~rows:g.rows h) out;
  let t0 = Kf_obs.Clock.now_ns () in
  let op = "fusedmm" in
  let input = Sparse g in
  let desc = Some (Fusedmm.descriptor ~semiring:semiring.Semiring.name inst) in
  let guard = kernel_guard op in
  let reference () =
    into_mat out
      (reference_mat ~op ~input ~t0 ~desc
         (Dense (Fusedmm.fused ~semiring inst g h)))
  in
  let rec dispatch engine =
    match engine with
    | Dist ->
        warn_no_dist_kernels op;
        dispatch Host
    | Host ->
        let pool = host_pool pool in
        finish_mat_host ~op ~input ~t0 ~desc
          ~engine_used:
            (graph_host_used
               ~kernel:("fusedmm " ^ Fusedmm.inst_key inst)
               ~pool)
          ~pool ~checked:(guard <> None)
          (fun () ->
            Dense (Host_fused.fusedmm ~pool ~semiring ?out ?guard inst g h))
    | Fused ->
        let z, reports, _plan = Fusedmm.sim_fused device semiring inst g h in
        finish_mat ~op ~input ~t0 ~desc
          ~engine_used:
            (Printf.sprintf "fused %s [%s]"
               (match inst with
               | Fusedmm.Sddmm_spmm -> "sddmm+spmm"
               | Fusedmm.Spmm -> "spmm")
               semiring.Semiring.name)
          (Dense z) reports
    | Library -> (
        (* the unfused composition the paper argues against:
           materialise S, then aggregate it in a second launch *)
        match inst with
        | Fusedmm.Spmm ->
            let z, reports, _ = Fusedmm.sim_spmm device semiring g h in
            finish_mat ~op ~input ~t0 ~desc ~engine_used:"cusparse-style spmm"
              (Dense z) reports
        | Fusedmm.Sddmm_spmm ->
            let s, r1, plan = Fusedmm.sim_sddmm device semiring g h in
            let z, r2, _ = Fusedmm.sim_spmm ~plan device semiring s h in
            finish_mat ~op ~input ~t0 ~desc
              ~engine_used:"sddmm + spmm (two launches, S materialised)"
              (Dense z) (r1 @ r2))
  in
  guarded ~op ~engine ~vec_of:mat_vec
    ~checked:(fun r -> r.m_checked)
    ~reference
    ~dispatch:(fun e -> into_mat out (dispatch e))

let sddmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) device
    (g : Matrix.Csr.t) (h : Matrix.Dense.t) =
  let t0 = Kf_obs.Clock.now_ns () in
  let op = "sddmm" in
  let input = Sparse g in
  (* standalone SDDMM is a building block, not a family instantiation:
     the trace records nothing for it *)
  let desc = None in
  let guard = kernel_guard op in
  let reference () =
    reference_mat ~op ~input ~t0 ~desc (Sparse (Fusedmm.sddmm ~semiring g h))
  in
  let rec dispatch engine =
    match engine with
    | Dist ->
        warn_no_dist_kernels op;
        dispatch Host
    | Host ->
        let pool = host_pool pool in
        finish_mat_host ~op ~input ~t0 ~desc
          ~engine_used:(graph_host_used ~kernel:"sddmm" ~pool)
          ~pool ~checked:(guard <> None)
          (fun () -> Sparse (Host_fused.sddmm ~pool ~semiring ?guard g h))
    | Fused | Library ->
        (* one kernel either way: there is nothing to fuse until the
           consumer is known (that is the plan compiler's job) *)
        let s, reports, _ = Fusedmm.sim_sddmm device semiring g h in
        finish_mat ~op ~input ~t0 ~desc
          ~engine_used:("sddmm [" ^ semiring.Semiring.name ^ "]")
          (Sparse s) reports
  in
  guarded ~op ~engine ~vec_of:mat_vec
    ~checked:(fun r -> r.m_checked)
    ~reference ~dispatch

let spmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) ?out device
    (s : Matrix.Csr.t) (h : Matrix.Dense.t) =
  let name = "Executor.spmm" in
  Fusedmm.check ~name Fusedmm.Spmm s h;
  Option.iter (Host_fused.check_graph_out ~name ~rows:s.rows h) out;
  let t0 = Kf_obs.Clock.now_ns () in
  let op = "spmm" in
  let input = Sparse s in
  let desc =
    Some (Fusedmm.descriptor ~semiring:semiring.Semiring.name Fusedmm.Spmm)
  in
  let guard = kernel_guard op in
  let reference () =
    into_mat out
      (reference_mat ~op ~input ~t0 ~desc (Dense (Fusedmm.spmm ~semiring s h)))
  in
  let rec dispatch engine =
    match engine with
    | Dist ->
        warn_no_dist_kernels op;
        dispatch Host
    | Host ->
        let pool = host_pool pool in
        finish_mat_host ~op ~input ~t0 ~desc
          ~engine_used:(graph_host_used ~kernel:"spmm" ~pool)
          ~pool ~checked:(guard <> None)
          (fun () -> Dense (Host_fused.spmm ~pool ~semiring ?out ?guard s h))
    | Fused | Library ->
        let z, reports, _ = Fusedmm.sim_spmm device semiring s h in
        finish_mat ~op ~input ~t0 ~desc
          ~engine_used:("spmm [" ^ semiring.Semiring.name ^ "]")
          (Dense z) reports
  in
  guarded ~op ~engine ~vec_of:mat_vec
    ~checked:(fun r -> r.m_checked)
    ~reference
    ~dispatch:(fun e -> into_mat out (dispatch e))
