(** A reusable dense view of a slice of the instance stream — the
    batched-decode contract between ingest and replay.

    Instance frames, and slices of a materialized recording, are
    copied {e once} into preallocated int arrays; every replay lane
    loop reads those arrays directly (per-path descriptors live with
    the session, indexed by path id) instead of re-reading wire bytes
    per instance per lane.

    {b Lifetime rules.}  A batch is a scratch buffer owned by its
    filler.  Readers may access indices [0, length t) of {!ids} and
    {!arrs}; they must not retain the arrays past the call that handed
    them the batch — the next fill writes over the same storage, and
    growth swaps the arrays out entirely. *)

type t = {
  mutable n : int;
  mutable ids : int array;  (** Path ids, valid in [\[0, n)]. *)
  mutable arrs : int array;
      (** Arrival codes ([0] loop-head, [1] entry, [2] continuation —
          {!Recorder.arrival_code} widened to int), valid in [\[0, n)]. *)
}

val create : ?capacity:int -> unit -> t
(** Fresh empty batch.  [capacity] (default 1024) presizes {!ids} and
    {!arrs}; all fills grow amortized-doubling beyond it. *)

val length : t -> int

val clear : t -> unit

val ensure : t -> int -> unit
(** Grow {!ids}/{!arrs} to hold at least [n] instances. *)

val set_length : t -> int -> unit
(** Declare [n] instances valid after a direct array fill (grows the
    wire arrays first).  @raise Invalid_argument when [n < 0]. *)

val kind_of_code : int -> Path.head_kind
(** The {!Recorder.arrival_of_code} mapping on the widened int code
    (any code [>= 2] reads as [Continuation], as on the wire). *)
