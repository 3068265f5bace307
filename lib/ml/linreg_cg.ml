open Matrix

type result = {
  weights : Vec.t;
  iterations : int;
  residual_norm : float;
  gpu_ms : float;
  pattern_ms : float;
  launches : int;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

let fit ?engine ?pool ?cluster ?(max_iterations = 100) ?(tolerance = 1e-6)
    ?(eps = 0.001)
    ?checkpoint ?ckpt_meta ?resume device input ~targets =
  if Array.length targets <> Fusion.Executor.rows input then
    invalid_arg "Linreg_cg.fit: one target per row required";
  let session = Session.create ?engine ?pool ?cluster device ~algorithm:"LR" in
  (match checkpoint with
  | Some (path, every) ->
      Session.set_checkpoint ?meta:ckpt_meta session ~path ~every
  | None -> ());
  Kf_obs.Trace.with_span "fit.LR" @@ fun () ->
  let n = Fusion.Executor.cols input in
  (* w, r and p are allocated here once and then updated in place, and
     q has one buffer the pattern writes into, so a steady-state
     iteration allocates no vector.  The in-place operations run in the
     copying forms' order, so the bits are the same. *)
  let w, r, p, nr2, nr2_target, i =
    match resume with
    | Some path ->
        let st = Session.resume session ~path in
        ( Kf_resil.Ckpt.get_floats st "lr.w",
          Kf_resil.Ckpt.get_floats st "lr.r",
          Kf_resil.Ckpt.get_floats st "lr.p",
          Kf_resil.Ckpt.get_float st "lr.nr2",
          Kf_resil.Ckpt.get_float st "lr.nr2_target",
          Kf_resil.Ckpt.get_int st "lr.i" )
    | None ->
        (* r = -(X^T t);  p = -r *)
        let r = Session.xt_y session input targets ~alpha:(-1.0) in
        let p = Session.scal session (-1.0) r in
        let nr2 = Session.dot session r r in
        (* derived before the loop, so it must be checkpointed, not
           recomputed: resuming re-derives nothing *)
        (Vec.create n, r, p, nr2, nr2 *. tolerance *. tolerance, 0)
  in
  let nr2 = ref nr2 and i = ref i in
  let q = Vec.create n in
  Session.set_state_fn session (fun () ->
      [
        ("lr.w", Kf_resil.Ckpt.Floats w);
        ("lr.r", Kf_resil.Ckpt.Floats r);
        ("lr.p", Kf_resil.Ckpt.Floats p);
        ("lr.nr2", Kf_resil.Ckpt.Float !nr2);
        ("lr.nr2_target", Kf_resil.Ckpt.Float nr2_target);
        ("lr.i", Kf_resil.Ckpt.Int !i);
      ]);
  let beta_z = if eps = 0.0 then None else Some (eps, p) in
  while !i < max_iterations && !nr2 > nr2_target do
    Session.iteration session (fun () ->
        (* q = X^T (X p) + eps * p — the pattern of Table 1 row 4; an
           unregularised solve (eps = 0) degrades to plain X^T(Xy). *)
        Session.pattern_into session input ~out:q ~y:p ?beta_z ~alpha:1.0 ();
        let alpha = !nr2 /. Session.dot session p q in
        let old_nr2 = !nr2 in
        (* w += alpha * p;  r += alpha * q;  nr2 = r . r *)
        nr2 := Session.axpy2_dot session alpha p w q r;
        let beta = !nr2 /. old_nr2 in
        (* p = -r + beta * p *)
        Session.axpby_inplace session (-1.0) r beta p;
        incr i)
  done;
  {
    weights = w;
    iterations = !i;
    residual_norm = !nr2;
    gpu_ms = Session.gpu_ms session;
    pattern_ms = Session.pattern_ms session;
    launches = Session.launches session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

type cpu_result = {
  cpu_weights : Vec.t;
  cpu_iterations : int;
  buckets : Blas.time_buckets;
}

let fit_cpu ?(max_iterations = 100) ?(tolerance = 1e-6) ?(eps = 0.001) input
    ~targets =
  if Array.length targets <> Fusion.Executor.rows input then
    invalid_arg "Linreg_cg.fit_cpu: one target per row required";
  let buckets = Blas.fresh_buckets () in
  let xt_t () =
    match input with
    | Fusion.Executor.Sparse x -> Blas.csrmv_t x targets
    | Fusion.Executor.Dense x -> Blas.gemv_t x targets
  in
  let pattern_q p =
    let beta = if eps = 0.0 then None else Some eps in
    let z = if eps = 0.0 then None else Some p in
    match input with
    | Fusion.Executor.Sparse x -> Blas.pattern_sparse ~alpha:1.0 x p ?beta ?z ()
    | Fusion.Executor.Dense x -> Blas.pattern_dense ~alpha:1.0 x p ?beta ?z ()
  in
  let n = Fusion.Executor.cols input in
  let r = Blas.timed buckets Blas.Pattern_op xt_t in
  Vec.scal (-1.0) r;
  let p = Blas.timed buckets Blas.Blas1_op (fun () -> Vec.scale (-1.0) r) in
  let nr2 = ref (Blas.timed buckets Blas.Blas1_op (fun () -> Vec.dot r r)) in
  let nr2_target = !nr2 *. tolerance *. tolerance in
  let w = Vec.create n in
  let p = ref p in
  let i = ref 0 in
  while !i < max_iterations && !nr2 > nr2_target do
    let q = Blas.timed buckets Blas.Pattern_op (fun () -> pattern_q !p) in
    let pq = Blas.timed buckets Blas.Blas1_op (fun () -> Vec.dot !p q) in
    let alpha = !nr2 /. pq in
    Blas.timed buckets Blas.Blas1_op (fun () ->
        Vec.axpy alpha !p w;
        Vec.axpy alpha q r);
    let old_nr2 = !nr2 in
    nr2 := Blas.timed buckets Blas.Blas1_op (fun () -> Vec.dot r r);
    let beta = !nr2 /. old_nr2 in
    Blas.timed buckets Blas.Blas1_op (fun () ->
        let next = Vec.scale beta !p in
        Vec.axpy (-1.0) r next;
        p := next);
    incr i
  done;
  { cpu_weights = w; cpu_iterations = !i; buckets }

(* --- unified algorithm API ------------------------------------------------ *)

let predict w input = Algorithm.matvec input w

module Algo = struct
  let name = "lr"

  let display_name = "linear regression CG"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    let r =
      fit ~engine:cfg.engine ?max_iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device p.input ~targets:p.raw
    in
    {
      Algorithm.label =
        Printf.sprintf "%d iterations, residual %g" r.iterations
          r.residual_norm;
      fields =
        [
          ("iterations", Kf_obs.Json.Int r.iterations);
          ("residual_norm", Kf_obs.Json.Float r.residual_norm);
        ];
      weights =
        {
          Algorithm.vecs = [| r.weights |];
          cols = Array.length r.weights;
          extra = [];
        };
      gpu_ms = r.gpu_ms;
      trace = r.trace;
      timeline = r.timeline;
    }

  let scorer (w : Algorithm.weights) =
    { Algorithm.s_vecs = [| w.vecs.(0) |]; s_finish = (fun m -> m.(0)) }
end
