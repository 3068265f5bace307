open Gpu_sim

(** The engines behind {!Executor}, one module each, behind one
    signature.

    A backend runs an op and declares only what the executor's wrapper
    cannot work out for itself: its engine and name, whether its time is
    simulated, and the engine it falls back to.  Everything shared by all
    ops and engines is the wrapper's: the start time, the [Host_stats]
    sink of the wall-clock engines, the profile, trace span and
    counters, fault arming and the guard scan, the retry -> fallback ->
    reference recovery chain, and copying a result into the caller's
    [?out] when the backend did not write it there.

    Adding an engine means one module of type {!S} and one constructor
    of {!engine}. *)

module Log : Logs.LOG
(** The ["fusion.executor"] log source. *)

type engine = Fused | Library | Host | Dist
type input = Sparse of Matrix.Csr.t | Dense of Matrix.Dense.t

(** What the wrapper hands an op. *)
type ctx = {
  device : Device.t;  (** the simulated device *)
  pool : Par.Pool.t option;  (** [None]: [Par.Pool.default] *)
  cluster : Kf_dist.Cluster.t option;  (** [None]: [Kf_dist.Cluster.default] *)
  guard : string option;
      (** the guard point, when the kernel should check its own output
          for non-finite values (guards on, no fault rule active) *)
}

(** What an op hands back. *)
type 'a run = {
  value : 'a;
  reports : Sim.report list;  (** kernel launches; [[]] on wall-clock engines *)
  used : string;  (** the executor's [engine_used] *)
  checked : bool;  (** the kernel checked [value] at the guard point *)
}

val ran : ?reports:Sim.report list -> ?checked:bool -> string -> 'a -> 'a run
(** [ran used value]: no reports and [checked = false] unless given. *)

val layout :
  sparse:(Matrix.Csr.t -> 'a) -> dense:(Matrix.Dense.t -> 'a) -> input -> 'a
(** Dispatch on the storage layout. *)

module type S = sig
  val engine : engine
  val name : string  (** the CLI spelling, e.g. ["host"] *)

  val simulated : bool
  (** [true]: time is the kernel reports' simulated device time;
      [false]: wall clock, measured by the wrapper under a
      [Host_stats] sink, and counted in ["executor.<name>_ops"]. *)

  val fallback : engine option
  (** Where the recovery chain goes after the retry on this engine. *)

  val xt_y : ctx -> input -> Matrix.Vec.t -> alpha:float -> Matrix.Vec.t run

  val pattern :
    ctx -> ?out:Matrix.Vec.t -> input -> y:Matrix.Vec.t -> ?v:Matrix.Vec.t ->
    ?beta_z:float * Matrix.Vec.t -> alpha:float -> unit -> Matrix.Vec.t run
  (** May write into [out]; the wrapper copies otherwise. *)

  val x_y : ctx -> input -> Matrix.Vec.t -> Matrix.Vec.t run

  val fusedmm :
    ctx -> ?out:Matrix.Dense.t -> Semiring.t -> Fusedmm.instantiation ->
    Matrix.Csr.t -> Matrix.Dense.t -> Matrix.Dense.t run

  val sddmm :
    ctx -> Semiring.t -> Matrix.Csr.t -> Matrix.Dense.t -> Matrix.Csr.t run

  val spmm :
    ctx -> ?out:Matrix.Dense.t -> Semiring.t -> Matrix.Csr.t ->
    Matrix.Dense.t -> Matrix.Dense.t run
end

val of_engine : engine -> (module S)
(** [Library]: the cuSPARSE/cuBLAS composition.  [Fused]: [Library]
    with the paper's fused [xt_y], [pattern] and [fusedmm].  [Host]: the
    multicore kernels of [Host_fused] and the parallel BLAS; falls back
    to [Library].  [Dist]: row shards on worker processes; falls back to
    [Host], and runs [Host]'s op when the cluster cannot be spawned and
    for the graph ops, which have no shards (warning once per op). *)
