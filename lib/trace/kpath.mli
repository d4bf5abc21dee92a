(** Sliding-window interner for k-iteration paths (D'Elia & Demetrescu,
    arXiv:1304.5197).

    A k-iteration path is a window of up to [k] consecutive acyclic path
    instances chained by {!Path.Loop_head} arrivals; an {!Path.Entry} or
    {!Path.Continuation} arrival restarts the chain, and once the chain
    is [k] deep the window slides.  The interner assigns each distinct
    window a dense id in first-materialization order — the counter index
    a k-iteration path profiler accumulates into.

    At [k = 1] every window is a single path instance, the window id
    order is the first-observation order of path ids, and the structure
    degenerates to a per-path-id counter table — which is how the
    [path-profile-k1] scheme reduces bit-identically to [path-profile]. *)

type t

val create : k:int -> t
(** @raise Invalid_argument when [k < 1]. *)

val k : t -> int

val root : int
(** The empty window (node 0) — the initial cursor of every lane. *)

val advance : t -> cur:int -> arrival:Path.head_kind -> pid:int -> int
(** The window after observing instance [pid] with [arrival], given the
    current window [cur]: a chain restart on [Entry]/[Continuation], an
    extension (sliding once [k] deep) on [Loop_head].  Interns the
    window on first sight. *)

val num_nodes : t -> int
(** Windows materialized so far, the root included — [num_nodes - 1] is
    the allocated counter space of a profiler keyed on this trie
    (windows created while linking suffixes included, as in a k-slab
    forest). *)

val depth : t -> int -> int
(** Window length of a node ([0] for {!root}, at most [k]). *)

(** Flattened interner for the replay kernels: the same automaton with
    the top trie level (children of the root) in a dense pid-indexed
    array and deeper children in an open-addressed int table — no
    hashtable buckets or boxing on the hot walk.  Node ids are
    bit-identical to the reference interner above for any advance
    sequence (allocation order is preserved exactly).

    One [Flat.t] is a forest (a k-slab forest in k-BLPP's terms) that
    any number of cursors may advance through: node ids are
    forest-wide, each naming one window whichever cursor interned it
    first.  A cursor's own counter space is then the suffix closure of
    the windows it visited — every visited window and, transitively,
    its {!suffix} — which is exactly the node set, root aside, that a
    private forest fed only that cursor's advances would hold.  Fed a
    single cursor, [num_nodes - 1] is that counter space directly. *)
module Flat : sig
  type t

  val create : k:int -> t
  (** @raise Invalid_argument when [k < 1]. *)

  val k : t -> int

  val advance : t -> cur:int -> arrival:Path.head_kind -> pid:int -> int

  val num_nodes : t -> int

  val depth : t -> int -> int

  val suffix : t -> int -> int
  (** The node's window minus its oldest component ({!root} at depth
      1).  Interned whenever the node is: every node's suffix chain is
      already in the forest. *)
end
