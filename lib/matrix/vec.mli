(** Dense float vectors and the BLAS Level-1 operations used by the ML
    algorithms in the paper (Listing 1 calls axpy, dot, nrm2, scal).

    Vectors are plain [float array]s; this module adds the checked,
    documented operations the rest of the repository builds on.  All
    binary operations require equal lengths and raise [Invalid_argument]
    otherwise. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val init : int -> (int -> float) -> t

val copy : t -> t

val fill : t -> float -> unit

val scal : float -> t -> unit
(** [scal a x] computes [x <- a * x] in place. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] computes [y <- a * x + y] in place. *)

val dot : t -> t -> float

val axpy2_dot : float -> t -> t -> t -> t -> float
(** [axpy2_dot a x y u v] computes [y <- a * x + y] and [v <- a * u + v]
    in place and returns [v . v], in one pass.  The result and both
    vectors have the bits of [axpy a x y; axpy a u v; dot v v]: the
    dot runs left to right as {!dot} does. *)

val axpby : lo:int -> hi:int -> float -> t -> float -> t -> unit
(** [axpby ~lo ~hi a x b y] computes [y <- a * x + b * y] in place over
    the elements [\[lo, hi)], with the bits of [scal b y; axpy a x y]
    there.  Raises [Invalid_argument] if the lengths differ or the
    range is outside the vectors. *)

val nrm2 : t -> float
(** Euclidean norm. *)

val sum : t -> float

val mul_elementwise : t -> t -> t
(** [mul_elementwise v p] is the Hadamard product [v .* p] — the
    [v ⊙ (X × y)] step of the paper's Equation 1. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t
(** Non-destructive scaling. *)

val max_abs_diff : t -> t -> float
(** Largest absolute component-wise difference; used by tests to compare a
    simulated kernel result with the CPU reference. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Relative/absolute mixed tolerance comparison (default [tol = 1e-9]). *)

val pp : Format.formatter -> t -> unit
