(** Interprocedural forward paths (Section 3 of the paper).

    A path starts at the target of a backward taken control transfer (or at
    the program entry, or as a continuation after a matched return / a
    capped path), extends across forward calls and returns, and ends at

    - the next backward taken transfer (loop back edge, backward jump,
      backward indirect, backward call — the recursion case — or backward
      return), or
    - the return matching a call taken {e on} the path, or
    - the {!Signature.max_branches} cap, or
    - program termination.

    The head is the path's first block; the tail is the rest — the part NET
    predicts speculatively. *)

module Cfg = Hotpath_cfg.Cfg

type head_kind =
  | Loop_head
      (** Reached via a backward taken transfer — the only arrivals NET
          profiles. *)
  | Entry  (** Program entry. *)
  | Continuation  (** Follows a matched return or a capped path. *)

type end_kind =
  | Backward_transfer  (** Ended by a backward taken transfer. *)
  | Matched_return  (** Ended by the return matching an on-path call. *)
  | Cap  (** Hit the branch cap. *)
  | Program_end  (** Program exit or fuel exhaustion. *)

type t = {
  id : int;  (** Dense id assigned by the {!Path_table}. *)
  signature : Signature.t;
  blocks : Cfg.block_id array;  (** Full block sequence, head first. *)
  n_instrs : int;  (** Sum of block weights — the path's dynamic size. *)
  n_branches : int;  (** Conditional branches on the path. *)
  end_kind : end_kind;
}

val head : t -> Cfg.block_id

val tail : t -> Cfg.block_id array
(** All blocks after the head (may be empty for a single-block path). *)

val pp : Format.formatter -> t -> unit

val head_kind_to_string : head_kind -> string

val arrival_code : head_kind -> char
(** The arrival byte: ['\000'] loop head, ['\001'] entry, ['\002']
    continuation.  It is the one stored form of an arrival: a
    recording's arrivals, every batch and HOTPATH3 instance frames hold
    these bytes. *)

val arrival_kind : char -> head_kind
(** Inverse of {!arrival_code}.
    @raise Invalid_argument on any other byte. *)

val end_kind_to_string : end_kind -> string

val divergence : t -> t -> int option
(** [divergence a b] is the index of the first differing block, or [None]
    when one block sequence is a prefix of the other (including equality).
    The Dynamo simulator uses this to charge partial fragment execution
    when the predicted path and the executed path share a prefix. *)
