(** Numerical health guards.

    A guard scans an operation's output vector for NaN/Inf and raises
    {!Unhealthy} so the caller's retry-with-fallback chain can re-run
    the work instead of letting poison propagate silently through a
    solver. Scans are O(output length) — for the fused pattern that is
    O(cols) against O(nnz) compute, which is why they are cheap enough
    to leave on by default.

    Guards are enabled unless [KF_GUARDS] is [0] / [off] / [false] (or
    {!set_enabled} says otherwise). *)

exception Unhealthy of { point : string; index : int; value : float }
(** [value] is the first non-finite element found, at [index]. *)

val enabled : unit -> bool

val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run [f] with the guard flag forced, restoring it after. *)

val check_vec : point:string -> float array -> unit
(** Raise {!Unhealthy} on the first NaN/Inf in [v]; no-op when guards
    are disabled. *)

val report : point:string -> float array -> int -> unit
(** The accounting half of {!check_vec}, for a producer that scanned
    [v] itself while writing it: the index must be that of the first
    non-finite element of [v], or [-1] when there is none (what
    {!first_non_finite} returns over all of [v]).  Counts the check,
    and raises exactly the {!Unhealthy} that [check_vec ~point v]
    would.  Ignores the enabled flag: the producer only scans when it
    is set. *)

val first_non_finite : float array -> lo:int -> hi:int -> int
(** The first index in [\[lo, hi)] whose value is NaN or infinite, or
    [-1] when there is none.  The one non-finite scan: {!check_vec},
    {!healthy} and the host kernels that check their output while
    writing it all use it.  Raises [Invalid_argument] unless
    [0 <= lo] and [hi <= Array.length v]. *)

val healthy : float array -> bool
(** Pure scan, never raises, ignores the enabled flag. *)
