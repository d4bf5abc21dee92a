(** The software code cache: optimized single-path fragments.

    A fragment is the optimized copy of one predicted path, keyed both by
    its path id (exact hit: the whole instance runs in the cache) and by
    its head block (partial hit: execution follows the fragment until the
    executed path diverges, then exits to the interpreter).  The first
    fragment installed at a head owns that head's cache entry point,
    mirroring Dynamo's counter-to-fragment patching.

    The cache is flat: every table is an array indexed by path id (or head
    block id) that grows on demand, so path and head ids must be
    non-negative.  A path's stamp is 0 when it is absent and otherwise its
    last-use clock; each head keeps an intrusive newest-first chain of its
    fragments, and a member list makes {!flush} and the LRU scan cost
    O(resident).  {!mem}, {!touch} and {!longest_prefix} are the
    engine's per-instance queries and allocate nothing. *)

module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path

type fragment = {
  fr_path : int;  (** Path id this fragment was built from. *)
  fr_head : Cfg.block_id;
  fr_blocks : Cfg.block_id array;
  fr_instrs : int;
}

val fragment_of_path : Path.t -> fragment

type eviction =
  | Reject_when_full
      (** [insert] reports [`Full]; the engine responds with a whole-cache
          flush, as the original Dynamo did. *)
  | Evict_lru
      (** Make room by evicting the least-recently-entered fragment
          ([find_path]/[find_head] hits refresh recency). *)

type t

val create : ?capacity:int -> ?eviction:eviction -> unit -> t
(** [capacity] bounds the number of resident fragments (default 8192);
    [eviction] defaults to [Reject_when_full]. *)

val size : t -> int

val is_full : t -> bool

val insert : t -> fragment -> [ `Inserted | `Duplicate | `Full | `Evicted of fragment ]
(** Install a fragment.  [`Duplicate] when its path already has one.  At
    capacity: [`Full] (nothing inserted) under [Reject_when_full], or
    [`Evicted victim] (victim removed, fragment inserted) under
    [Evict_lru]. *)

val mem : t -> int -> bool
(** Whether a path has a resident fragment.  Does not refresh recency. *)

val touch : t -> int -> unit
(** Refresh a resident path's recency, exactly as a {!find_path} hit
    does; no effect on an absent path. *)

val find_path : t -> int -> fragment option
(** Exact fragment for a path id. *)

val find_head : t -> Cfg.block_id -> fragment list
(** Every resident fragment starting at this head (most recent first);
    empty when the head has no cache entry point. *)

val longest_prefix : t -> Cfg.block_id array -> int
(** [longest_prefix t blocks] is the longest common prefix, in blocks, of
    [blocks] and any resident fragment at its head [blocks.(0)]; 0 when
    that head has no fragment.  It touches the candidates in {!find_head}'s
    newest-first order, so it leaves the same LRU state as
    [find_head t blocks.(0)]. *)

val flush : t -> unit
(** Drop every fragment (the phase-transition response of Section 6.1). *)

val flush_count : t -> int

val inserted_total : t -> int
(** Fragments ever created, across flushes. *)

val evicted_total : t -> int
(** Fragments removed by LRU eviction. *)
