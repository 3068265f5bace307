open Gpu_sim

(** GPU memory manager — the second component of the paper's SystemML
    integration (Section 4.4): allocate device blocks, evict via LRU when
    space runs out, keep host and device copies consistent, and charge
    every movement to the transfer ledger.

    It also charges the *data transformation* costs the paper highlights:
    SystemML's JVM represents a sparse matrix as an array of sparse rows,
    which must be converted to CSR and pushed through JNI into native
    space before a device copy can happen. *)

type t

type stats = {
  uploads : int;
  downloads : int;
  evictions : int;
  hits : int;  (** requests served by an already-resident block *)
  conversion_ms : float;  (** JNI + format-conversion time *)
  transfer_ms : float;  (** PCIe time *)
}

val create : ?jni_gbs:float -> ?on_evict:(key:string -> unit) -> Device.t -> t
(** [jni_gbs] (default 2.0) is the JVM-heap-to-native copy bandwidth.
    [on_evict] is called with each victim's key after it leaves the
    residency table — callers holding parallel state per block (the
    serving layer's model registry) stay in sync with the LRU without
    polling. *)

val ensure_resident :
  t -> key:string -> bytes:int -> needs_conversion:bool -> float
(** Make block [key] resident on the device, evicting least-recently-used
    blocks if needed; returns the cost in milliseconds (0 on a hit).
    [needs_conversion] charges the JNI/format path on upload. *)

val touch_dirty : t -> key:string -> unit
(** Mark a resident block's device copy newer than the host's; evicting
    it will force a download. *)

val release : t -> key:string -> unit
(** Drop a block without transfer (its content is disposable). *)

val is_resident : t -> key:string -> bool
(** Whether block [key] is resident (no LRU touch). *)

val resident_bytes : t -> int

val stats : t -> stats

val xfer : t -> Xfer.t
(** The underlying transfer ledger. *)
