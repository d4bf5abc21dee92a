(** Interned path table: signature -> dense path id.

    The table is what a bit-tracing path profiler maintains at runtime; its
    size is the counter-space cost of path-profile-based prediction
    (Section 5.2, Table 2, Figure 4 of the paper).

    One open-addressed index, keyed on (head, branch count, history,
    indirect targets), serves both ways in: the recorder probes it
    straight from the segmenter's live {!Signature.Builder} and copies
    the path out only on a miss ({!intern_builder}); decoded and
    hand-built paths come in frozen ({!intern}).  Every probe compares
    the full key, never the hash alone. *)

module Cfg = Hotpath_cfg.Cfg

type t

val create : unit -> t

val size : t -> int
(** Number of distinct paths interned. *)

val intern :
  t ->
  Signature.t ->
  blocks:Cfg.block_id array ->
  n_instrs:int ->
  n_branches:int ->
  end_kind:Path.end_kind ->
  int
(** Id of the path with this signature, allocating on first sight.  The
    descriptive fields are taken from the first occurrence (subsequent
    occurrences of the same signature necessarily describe the same block
    sequence; this is asserted). *)

val intern_builder :
  t ->
  Signature.Builder.t ->
  blocks:Cfg.block_id array ->
  n_blocks:int ->
  n_instrs:int ->
  end_kind:Path.end_kind ->
  int
(** [intern] of the builder's signature and the first [n_blocks] of
    [blocks], without building either unless the path is new: a hit
    allocates nothing, a miss freezes the signature and copies the
    blocks.  Neither argument is retained, so both can be reused. *)

val find : t -> Signature.t -> int option

val path : t -> int -> Path.t
(** @raise Invalid_argument for an unknown id. *)

val paths : t -> Path.t array
(** Dense array indexed by path id (fresh copy). *)

val iter : (Path.t -> unit) -> t -> unit
(** In increasing id order. *)

val unique_heads : t -> Cfg.block_id list
(** Distinct head blocks, ascending — the counter set NET would allocate if
    every head were a loop head (the paper's Table 2 counts heads of
    recorded paths). *)
