(** Linear regression via conjugate gradient — Listing 1 of the paper.

    Solves [(X^T X + eps I) w = X^T t] by CG.  Each iteration's dominant
    work is [q = X^T (X p) + eps p] — exactly the [X^T(Xy) + beta*z]
    instantiation of the pattern — plus axpy/dot/nrm2 Level-1 updates,
    which is why LR-CG anchors the paper's end-to-end evaluation
    (Tables 2, 5 and 6). *)

type result = {
  weights : Matrix.Vec.t;
  iterations : int;
  residual_norm : float;  (** final [||r||^2] *)
  gpu_ms : float;  (** simulated device time *)
  pattern_ms : float;
  launches : int;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;  (** one entry per CG iteration *)
}

val fit :
  ?engine:Fusion.Executor.engine ->
  ?pool:Par.Pool.t ->
  ?cluster:Kf_dist.Cluster.t ->
  ?max_iterations:int ->
  ?tolerance:float ->
  ?eps:float ->
  ?checkpoint:string * int ->
  ?ckpt_meta:Kf_resil.Ckpt.payload ->
  ?resume:string ->
  Gpu_sim.Device.t ->
  Fusion.Executor.input ->
  targets:Matrix.Vec.t ->
  result
(** Defaults follow Listing 1: [max_iterations = 100],
    [tolerance = 1e-6], [eps = 0.001].

    [checkpoint:(path, every)] writes a [kf-ckpt/1] file after every
    [every]-th CG iteration; [resume:path] restores the full solver
    state (w, r, p, residual norms, iteration counter, pattern trace)
    bit-exactly, so a resumed run converges to the identical model.
    [ckpt_meta] fields ride in each checkpoint unchanged.  [pool] and
    [cluster] are passed to {!Session.create}. *)

(** CPU reference execution with wall-clock time bucketed by operation
    class — the measurement behind Table 2. *)
type cpu_result = {
  cpu_weights : Matrix.Vec.t;
  cpu_iterations : int;
  buckets : Matrix.Blas.time_buckets;
}

val fit_cpu :
  ?max_iterations:int ->
  ?tolerance:float ->
  ?eps:float ->
  Fusion.Executor.input ->
  targets:Matrix.Vec.t ->
  cpu_result

val predict : Matrix.Vec.t -> Fusion.Executor.input -> Matrix.Vec.t
(** [predict w input = X x w] — the fitted linear predictor, one score
    per input row (sequential reference; the serving layer batches the
    same product through {!Fusion.Executor.x_y}). *)

module Algo : Algorithm.S
(** Registry adapter ([name = "lr"]). *)
