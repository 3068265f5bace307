(** A reusable pool of OCaml 5 domains for data-parallel host execution.

    The pool is the CPU analogue of the paper's persistent grid: domains
    are spawned once and reused across kernels, so per-kernel overhead is
    a broadcast + join on a condition variable rather than domain spawn
    cost.  With [size = 1] every entry point degrades to plain sequential
    execution in the calling domain (no domains are spawned, no locks are
    taken), which keeps single-core machines and CI honest.

    Jobs submitted to one pool must not themselves submit jobs to the
    same pool (no nested parallelism); the pool is otherwise safe to use
    from the single coordinating domain that owns it. *)

type t

val default_size : unit -> int
(** Pool size used by {!default}: the [KF_DOMAINS] environment variable
    when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()], clamped to [\[1, 128\]]. *)

val create : ?size:int -> unit -> t
(** [create ~size ()] spawns [size - 1] worker domains (the caller acts
    as worker 0).  [size] defaults to {!default_size}.  Raises
    [Invalid_argument] if [size < 1]. *)

val size : t -> int

val default : unit -> t
(** A process-wide shared pool, created lazily with {!default_size}
    workers on first use.  This is what the executor and parallel BLAS
    use when no explicit pool is given. *)

val shutdown : t -> unit
(** Join and discard the worker domains and release the scratch
    buffers.  The pool must not be used afterwards.  Shutting down the {!default} pool is not allowed
    (raises [Invalid_argument]); it lives for the process. *)

val run_workers : t -> (int -> unit) -> unit
(** [run_workers t f] runs [f wid] once on every worker
    [wid = 0 .. size-1] concurrently and waits for all of them.  Worker 0
    is the calling domain.  If any worker raises, one of the exceptions
    is re-raised in the caller after all workers finish. *)

val map_workers : t -> (int -> 'a) -> 'a array
(** [map_workers t f] is {!run_workers} collecting each worker's result:
    returns [[| f 0; ...; f (size-1) |]] (computed concurrently). *)

val parallel_for : t -> ?chunk:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for t ~lo ~hi body] calls [body start stop] over disjoint
    half-open chunks covering [\[lo, hi)], dynamically scheduled over the
    workers (an atomic counter stands in for the GPU's block scheduler).
    [chunk] bounds the chunk size; the default aims at 4 chunks per
    worker.  Sequential when [size = 1] or the range is small. *)

(** {1 Scratch workspace}

    Each worker owns grow-only float buffers, one per {!slot}: the host
    analogue of per-block shared memory.  Kernels take their
    accumulators and intermediates from here instead of allocating them
    per op, so a steady state of repeated shapes allocates nothing.

    The scratch follows the pool's single-submitter contract: buffers
    are fetched (and grown) by the one coordinating domain before it
    submits a job, and a job's workers then use them without locks.
    Ops on one pool never overlap, so one op's buffers are free for the
    next.  A buffer is only ever replaced by a longer one: the pool
    holds the largest op's buffers until {!shutdown}. *)

type slot =
  | Acc  (** column-wide accumulators *)
  | Rows  (** per-row intermediates, e.g. the blocked kernels' [p] *)

val scratch : t -> slot -> wid:int -> int -> float array
(** [scratch t slot ~wid n] is worker [wid]'s [slot] buffer, at least
    [n] long.  It is replaced by a fresh [n]-element buffer when shorter
    (recorded as one accumulator allocation in the ambient
    {!Kf_obs.Host_stats} sink), otherwise returned as is.  The contents
    are whatever the previous user left: callers zero-fill the prefix
    they use and must not rely on [Array.length].  Call from the
    coordinating domain only, never from inside a job. *)
