(** Column-tile segment layouts for owner-computes CSR scatters — the
    inspector half of the blocked host kernel.

    CSR stores rows contiguously, so a transposed product [X^T p] is a
    scatter into the [cols]-wide output.  The old parallel scheme gave
    every domain a full-width accumulator and tree-merged them —
    O(domains * cols) extra traffic.  Here each domain instead {e owns}
    a disjoint set of column tiles, and a one-time O(nnz) inspector
    pass flattens, per tile, the contiguous runs of entries each row
    contributes (the CSR sorted-column invariant makes every (row,
    tile) pair one run).  The executor pass then streams exactly its
    own non-zeros, tile by tile, keeping each tile's output slice
    cache-hot and writing nothing any other domain touches — no merge,
    no re-streaming of the matrix.

    Layouts depend only on the sparsity structure and are cached by
    matrix identity, so solvers that iterate on one matrix pay the
    inspector once. *)

type t

val layout : ?tile_cols:int -> ?parts:int -> Csr.t -> t
(** [layout ~tile_cols ~parts x] returns (building on first use, cached
    after) a segment layout for [x] whose tile width targets
    [tile_cols] columns per tile — default {!Par.Tune.tile_cols} —
    refined so that [parts] workers get at least a few tiles each for
    nnz balancing.  Raises [Invalid_argument] on [tile_cols < 1]. *)

val n_tiles : t -> int

val tile_width : t -> int

val scatter :
  ?pool:Par.Pool.t ->
  ?credit:bool ->
  t ->
  Csr.t ->
  p:Vec.t ->
  alpha:float ->
  ?beta_z:float * Vec.t ->
  out:Vec.t ->
  unit ->
  unit
(** [scatter t x ~p ~alpha ?beta_z ~out ()] computes
    [out.(c) = alpha * (X^T p).(c) (+ beta * z.(c))] in parallel over
    the pool, each worker scattering only the tiles it owns (weighted
    by nnz via {!Par.Partition.by_weights}) into the pool's
    {!Par.Pool.scratch} accumulator with a 4-way unrolled unsafe inner
    loop, then folding
    [alpha]/[beta*z] into its final write of the owned slice.  [out]
    is fully overwritten.  [credit] (default false) makes workers
    credit rows/nnz to {!Kf_obs.Host_stats} — callers that already
    credited the whole matrix in an earlier pass must leave it off so
    totals stay exact.  Raises [Invalid_argument] when [t] was not
    built for [x]'s shape. *)
