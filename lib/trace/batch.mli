(** A dense view of a slice of the instance stream — the contract
    between ingest and replay.

    A batch holds path ids in an int array and arrivals as bytes, in the
    encoding of {!Path.arrival_code}: the layout of a {!Recorder.t}'s
    [instances] and [arrivals] and of a HOTPATH3 instance frame.  So a
    recording {e is} a batch: replay hands a session the recording's own
    arrays, and readers decode each instance frame once into a reused
    batch.  Every replay lane loop reads these arrays directly (per-path
    descriptors live with the session, indexed by path id).

    {b Lifetime rules.}  A batch is owned by its filler.  Readers may
    access indices [0, length t) of {!ids} and {!arrs} and never write
    them; they must not retain the arrays past the call that handed them
    the batch — the next fill writes over the same storage, and growth
    swaps the arrays out entirely. *)

type t = {
  mutable n : int;
  mutable ids : int array;  (** Path ids, valid in [\[0, n)]. *)
  mutable arrs : Bytes.t;  (** Arrival bytes, valid in [\[0, n)]. *)
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
    arrays first).  @raise Invalid_argument when [n < 0]. *)
