(** Bit-tracing path signatures.

    Section 2 of the paper identifies a path by
    [<start_address>.<history>,<indirect_branch_target_list>]: the start
    address, one bit per conditional branch on the path (1 = taken, in
    execution order), and the targets of any indirect branches.  Signatures
    are built on the fly as the program executes — no preparatory static
    analysis — which is why bit tracing is the natural substrate for an
    online scheme.

    Paths are capped at {!max_branches} conditional branches (mirroring
    trace-length caps in real systems such as Dynamo); the history then
    fits one native int (OCaml's [max_int] is [2^62 - 1]), so building
    one allocates nothing.  Its on-disk encoding stays a raw 64-bit word
    ({!history}). *)

module Cfg = Hotpath_cfg.Cfg

type t
(** Immutable signature, usable as a hash-table key. *)

val max_branches : int
(** Upper bound on conditional branches per path (62). *)

val head : t -> Cfg.block_id
(** The start address. *)

val length : t -> int
(** Number of conditional branches recorded. *)

val bit : t -> int -> bool
(** [bit s i] — outcome of the [i]-th branch on the path (0-based, in
    execution order).  @raise Invalid_argument when out of range. *)

val history : t -> int64
(** Raw history word; bit [i] is the [i]-th branch outcome. *)

val indirect_targets : t -> Cfg.block_id list
(** Indirect-branch targets in execution order (usually empty). *)

val n_indirects : t -> int
(** [List.length (indirect_targets s)], without building the list. *)

val iter_indirects : (Cfg.block_id -> unit) -> t -> unit
(** Apply a function to each indirect-branch target in execution order. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** E.g. ["B5.0101,[B9]"] — head, branch outcomes in execution order
    (leftmost = first), indirect targets if any.  Matches the paper's
    [A.0101] notation for Figure 1. *)

(** Incremental construction during execution: one [add_branch] per
    conditional branch (a shift-or, the profiling operation whose cost the
    paper charges to bit tracing) and one [add_indirect] per indirect
    branch. *)
module Builder : sig
  type signature := t

  type t

  val create : head:Cfg.block_id -> t

  val reset : t -> head:Cfg.block_id -> unit
  (** Reuse the builder for the next path. *)

  val add_branch : t -> taken:bool -> unit
  (** @raise Invalid_argument when {!max_branches} bits are already
      recorded — callers must end the path at the cap. *)

  val add_indirect : t -> target:Cfg.block_id -> unit

  val branch_count : t -> int

  val hash : t -> int
  (** [hash b = Signature.hash (freeze b)], computed without freezing. *)

  val matches : t -> signature -> bool
  (** [matches b s = Signature.equal (freeze b) s], compared field by field
      without freezing: head, branch count, history and every indirect
      target. *)

  val freeze : t -> signature
  (** Immutable snapshot; the builder remains usable. *)
end
