(** Per-operator and per-fused-group cost estimates, one backend per
    engine.

    [Fused] / [Library] (simulated GPU) feed synthetic byte / atomic /
    flop counts through the {!Gpu_sim.Cost_model} roofline with occupancy
    from the Section 3.3 tuning model — shape-only, so the paper's
    500k x 1k worked example can be costed without materialising 5M
    non-zeros.  [Host] uses a stream-bandwidth model over the maximum
    per-domain byte share, calibratable from a [BENCH_host.json].

    Absolute numbers only need to be {e ordered} usefully: the plan
    chooser compares candidates under one model, and the per-operator
    bookkeeping charge breaks ties toward larger fusion groups. *)

(** Shape summary of a plan input matrix.  Concrete so callers (and the
    tests) can cost hypothetical shapes without materialising data. *)
type shape = { rows : int; cols : int; nnz : int; dense : bool }

type mat = { shape : shape; row_off : int array option }
(** A costed matrix: its shape plus, when compiled against a sparse
    input, the real CSR row-offset array (used to price the
    nnz-balanced host partition exactly). *)

val shape_of_input : Fusion.Executor.input -> shape
val mat_of_input : Fusion.Executor.input -> mat

(** {1 Host parameters} *)

type host_params = {
  stream_gbs : float;  (** per-domain sustained stream bandwidth *)
  par_efficiency : float;  (** fraction of linear scaling across domains *)
  dispatch_ms : float;  (** per parallel job dispatch overhead *)
}

val default_host : host_params

val host_of_bench_json : Kf_obs.Json.t -> host_params
(** Refit the host parameters from a parsed [BENCH_host.json] document;
    falls back to {!default_host} field-wise when the document lacks the
    needed measurements. *)

val host_of_bench_file : string -> host_params
(** {!host_of_bench_json} over a file path; {!default_host} when the
    file is missing or unreadable. *)

(** {1 Costing context} *)

type ctx = {
  engine : Fusion.Executor.engine;
  device : Gpu_sim.Device.t;
  host : host_params;
  domains : int;
  overhead_ms : float;  (** per-operator bookkeeping; tie-breaker *)
  workers : int;  (** [Dist] engine: cluster size being priced *)
  net : Kf_dist.Netmodel.t;
      (** [Dist] engine: the alpha-beta network model ([of_env]
          defaults, or a calibrated model from a live cluster) *)
}

val create :
  ?host:host_params ->
  ?overhead_ms:float ->
  ?domains:int ->
  ?workers:int ->
  ?net:Kf_dist.Netmodel.t ->
  engine:Fusion.Executor.engine ->
  Gpu_sim.Device.t ->
  ctx
(** Defaults: [host = default_host], [overhead_ms = 0.05] (the
    {!Sysml.Runtime} per-operator charge), [domains =
    Par.Pool.default_size ()] under [Host] (1 otherwise), [workers =
    Kf_dist.Cluster.default_size ()] under [Dist] (1 otherwise), [net =
    Kf_dist.Netmodel.of_env ()]. *)

(** {1 Operator costs (milliseconds)} *)

val vec_ms : ctx -> n:int -> reads:int -> writes:int -> flops:int -> float
(** Streaming vector operation over [n] elements with the given number
    of vector reads and writes. *)

val x_y_ms : ctx -> mat -> float
(** One [X %*% y] product. *)

val xt_y_ms : ctx -> mat -> float
(** One [t(X) %*% p] product (fused-kernel occupancy under the
    simulated engines; partial accumulators plus merge on the host). *)

val fused_ms : ctx -> mat -> Fusion.Pattern.instantiation -> float
(** One fused Equation 1 call covering the given instantiation: a
    single pass over the matrix under [Fused] and [Host]; the library
    composition it stands for under [Library]. *)

(** {1 Graph operator costs (the ["fusedmm"] family)} — over a sparse
    graph/sampled matrix [mat] and a width-[d] dense embedding *)

val sddmm_ms : ctx -> mat -> d:int -> float
(** One sampled dense-dense product onto the graph's sparsity
    (materialises the nnz sampled values). *)

val spmm_ms : ctx -> mat -> d:int -> float
(** One semiring SpMM aggregation. *)

val fusedmm_ms : ctx -> mat -> d:int -> Fusion.Fusedmm.instantiation -> float
(** One fused family call: a single structure walk under [Fused] /
    [Host] / [Dist] (the host tier serves [Dist]); the SDDMM-then-SpMM
    two-launch composition, S materialised, under [Library]. *)

val op_ms : ctx -> Ir.node -> mat_of:(Ir.node -> mat) -> float
(** Cost of executing one DAG node as its own operator (what the fusion
    enumerator charges for the parts of a chain a candidate leaves
    unfused).  Scalar arithmetic is interpreter-side and free. *)

val is_operator : Ir.node -> bool
(** Does executing this node separately issue a device/runtime operator
    (and therefore pay the per-operator bookkeeping charge)? *)
