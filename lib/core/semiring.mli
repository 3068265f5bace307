(** Semirings for the FusedMM pattern family.

    FusedMM (Rahman et al., PAPERS.md) parameterises the fused
    SDDMM+SpMM chain over two plug points: an {e edge} function applied
    to each sampled dot product, and an aggregation operator [op]
    combining the scaled neighbour rows.  Three shipped combinations
    cover the paper's workloads:

    - ["plain"]: identity edge, [+] aggregation — GCN / PageRank-style
      propagation;
    - ["sigmoid"]: logistic edge, [+] aggregation — force2vec-style
      graph embedding;
    - ["maxpool"]: identity edge, [max] aggregation — MaxPool
      neighbourhood aggregation.

    The fused kernels rely on [op] being associative and commutative
    with a neutral {!identity} (per-domain / per-block partials merge in
    arbitrary order) and on [edge] being pure; [test/test_graph.ml]
    qchecks exactly these laws.

    The edge function is a closed variant, not a [float -> float]
    closure.  This build has no flambda, so calling a closure (or a
    functor argument) per edge boxes the float going in and the float
    coming out, and the indirect call ends the chain of independent
    loads the host kernel relies on to hide gather latency.  With a
    variant, {!Host_fused} matches once per chunk of edges and runs a
    loop specialised to that case, calling [exp] on an unboxed float;
    the sequential reference and the simulated kernels use
    {!apply_edge}. *)

type op = Sum | Max

type edge =
  | Identity  (** the sampled dot itself *)
  | Logistic  (** {!logistic} of the sampled dot *)

type t = {
  name : string;  (** the CLI / DML spelling, e.g. ["sigmoid"] *)
  edge : edge;  (** applied to each sampled dot product *)
  op : op;  (** aggregation over a row's neighbours *)
}

val apply_edge : t -> float -> float
(** [apply_edge t x] is [t]'s edge function at [x]. *)

val plain : t
val sigmoid : t
val maxpool : t

val all : t list
(** The shipped semirings, in the order above. *)

val find : string -> t option
(** Look a semiring up by {!t.name}. *)

val names : string list

val identity : t -> float
(** Neutral element of [op]: [0.] for [Sum], [neg_infinity] for
    [Max]. *)

val combine : t -> float -> float -> float
(** Apply [op]. *)

val logistic : float -> float
(** Numerically stable [1 / (1 + exp (-x))] (the ["sigmoid"] edge). *)
