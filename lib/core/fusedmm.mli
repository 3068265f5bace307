(** The FusedMM pattern family: semiring-parameterised SDDMM ⊕ SpMM.

    FusedMM (Rahman et al., PAPERS.md) applies the paper's trick —
    stream each sparse row through the whole operator chain once — to
    graph workloads.  For a sparse graph [G] (nodes x nodes, CSR) and a
    dense embedding [H] (nodes x d):

    - SDDMM samples a dense-dense product at the stored edges:
      [S_ij = G_ij * edge(<H_i, H_j>)];
    - SpMM aggregates the scaled neighbour rows:
      [Z_i = op_j (S_ij * H_j)]  (elementwise over the d columns).

    The fused kernel computes [Z] without materialising [S]: each edge's
    sampled dot product is consumed immediately from registers, so [G]'s
    structure streams once and each gathered [H_j] row is reused for the
    aggregation — versus the unfused composition's extra [S]
    store/reload and second gather of [H].

    Two instantiations mirror Equation 1's partial structure: the full
    chain {!Sddmm_spmm} and its fusable floor {!Spmm} (pure aggregation
    over stored edge values — PageRank/GCN-style propagation).  The
    {!Semiring} picks the [edge]/[op] pair.

    Registered as the pattern family ["fusedmm"]; the simulated-GPU
    kernels below use hierarchical aggregation (registers for the
    per-edge dot, shared memory for the row accumulator, one coalesced
    global store per output row — no atomics, since output rows are
    disjoint).  The host kernels live in [Host_fused]. *)

open Gpu_sim

type instantiation =
  | Spmm  (** [Z_i = op_j (G_ij * H_j)] — aggregation only *)
  | Sddmm_spmm  (** the full fused chain *)

val instantiations : instantiation list
(** [ [Sddmm_spmm; Spmm] ] — largest first, like [Pattern.partials]. *)

val inst_key : instantiation -> string

val inst_label : instantiation -> string
(** ["sddmm+spmm"] or ["spmm"]. *)

val family_id : string
(** ["fusedmm"]. *)

val descriptor : semiring:string -> instantiation -> Pattern_family.descriptor
(** E.g. [descriptor ~semiring:"sigmoid" Sddmm_spmm] has key
    ["fusedmm/sddmm_spmm:sigmoid"] and label ["sddmm+spmm[sigmoid]"]. *)

val of_descriptor :
  Pattern_family.descriptor -> (instantiation * Semiring.t) option
(** Inverse of {!descriptor}; [None] for other families. *)

val check :
  name:string -> instantiation -> Matrix.Csr.t -> Matrix.Dense.t -> unit
(** Shared argument validation: {!Sddmm_spmm} needs a square graph over
    the embedding's rows; {!Spmm} needs [S.cols = H.rows].  Raises
    [Invalid_argument]. *)

(** {1 Sequential reference kernels}

    The recovery chain's floor and the differential-test oracle; they
    depend on nothing that fault injection can reach. *)

val sddmm : ?semiring:Semiring.t -> Matrix.Csr.t -> Matrix.Dense.t -> Matrix.Csr.t
(** Same sparsity structure as [G], values replaced by the sampled
    products.  Requires [G] square with [G.rows = H.rows].  Default
    semiring: {!Semiring.plain}. *)

val spmm : ?semiring:Semiring.t -> Matrix.Csr.t -> Matrix.Dense.t -> Matrix.Dense.t
(** [Z] ([S.rows x H.cols]); rows with no stored entries are zero.
    Requires [S.cols = H.rows]. *)

val fused :
  ?semiring:Semiring.t ->
  instantiation -> Matrix.Csr.t -> Matrix.Dense.t -> Matrix.Dense.t
(** The fused chain, sequential: bit-identical to
    [spmm (sddmm g h) h] for {!Sddmm_spmm} and to [spmm g h] for
    {!Spmm} (the per-edge scalar is computed by the same float
    expression in the same order). *)

(** {1 Simulated-GPU kernels}

    Like [Fused_sparse]: compute the real result while accounting the
    hardware events, priced by the cost model.  Degenerate shapes
    (no rows, no columns, no stored entries) return without charging a
    phantom launch. *)

val sim_fused :
  ?plan:Tuning.sparse_plan ->
  Device.t ->
  Semiring.t ->
  instantiation ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Dense.t * Sim.report list * Tuning.sparse_plan
(** One launch for the whole chain. *)

val sim_sddmm :
  ?plan:Tuning.sparse_plan ->
  Device.t ->
  Semiring.t ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Csr.t * Sim.report list * Tuning.sparse_plan
(** Standalone SDDMM launch (the unfused composition's first kernel). *)

val sim_spmm :
  ?plan:Tuning.sparse_plan ->
  Device.t ->
  Semiring.t ->
  Matrix.Csr.t ->
  Matrix.Dense.t ->
  Matrix.Dense.t * Sim.report list * Tuning.sparse_plan
(** Standalone SpMM launch (the unfused composition's second kernel). *)
