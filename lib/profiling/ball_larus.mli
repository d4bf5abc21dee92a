(** Ball–Larus efficient path profiling (MICRO 1996).

    The classic offline scheme the paper contrasts with bit tracing: a
    preparatory static analysis assigns each intraprocedural acyclic
    forward path a unique dense number, and a spanning-tree optimization
    places increments on a minimal set of edges (the {e chords}) so that
    summing the traversed increments yields the executing path's number.

    The acyclic CFG of a procedure is its blocks with backward edges
    removed and replaced by pseudo edges [ENTRY -> target] and
    [source -> EXIT]; forward edges strictly increase the address, so the
    result is a DAG and address order is a topological order.

    Numbering ([Val]) follows the original algorithm: in reverse
    topological order, [NumPaths(EXIT) = 1] and
    [NumPaths(v) = sum over successors w of NumPaths(w)], with [Val(e)]
    the running partial sum.  The chord increments come from the
    spanning-tree potential construction: with the zero-valued
    [EXIT -> ENTRY] edge forced into the tree and potentials propagated
    from ENTRY, [Inc(chord u->v) = Val + phi(u) - phi(v)] and tree edges
    need no instrumentation; every ENTRY-to-EXIT path's chord increments
    sum to its path number. *)

module Cfg = Hotpath_cfg.Cfg

type node = Block of Cfg.block_id | Exit
(** DAG nodes: the procedure's blocks plus a virtual exit. *)

type edge_kind =
  | Real  (** An original CFG edge (calls contribute their return-to edge). *)
  | To_exit  (** Real edge into the virtual exit (return / program exit). *)
  | Pseudo_entry  (** [ENTRY -> h] replacing back edges into [h]. *)
  | Pseudo_exit  (** [v -> EXIT] replacing back edges out of [v]. *)

type edge = {
  e_src : node;
  e_dst : node;
  e_kind : edge_kind;
  e_tag : int;  (** Disambiguates parallel edges (1 = branch-taken, else 0). *)
  e_val : int;  (** Ball–Larus [Val]. *)
  e_tree : bool;  (** In the spanning tree (no instrumentation needed). *)
  e_inc : int;  (** Chord increment; 0 for tree edges. *)
}

type t
(** Path numbering for one procedure. *)

val analyze : Cfg.program -> proc:Cfg.proc_id -> t
(** Build the acyclic CFG, number its paths and compute chord increments.
    @raise Invalid_argument if the procedure's path count overflows. *)

val num_paths : t -> int
(** [NumPaths(ENTRY)] — the static number of acyclic forward paths.  The
    paper notes this may be exponential in program size; it is also the
    counter space an array-based Ball–Larus profiler allocates. *)

val edges : t -> edge list

val num_edges : t -> int
(** Real + pseudo edges: the instrumentation points of the naive (no
    spanning tree) scheme. *)

val num_chords : t -> int
(** Edges carrying a non-zero-obligation increment after the spanning-tree
    optimization — what Ball–Larus actually instrument. *)

val path_number : t -> Cfg.block_id list -> int
(** Number of the ENTRY-to-EXIT DAG path visiting exactly these blocks
    (entry first; the virtual exit is implicit).  @raise Invalid_argument
    if the blocks do not form such a path or the first block is not the
    entry. *)

val regenerate : t -> int -> Cfg.block_id list
(** Inverse of {!path_number}: the block sequence of path [n].
    @raise Invalid_argument when [n] is outside [\[0, num_paths)]. *)

val enumerate : ?limit:int -> t -> Cfg.block_id list array
(** All ENTRY-to-EXIT paths in path-number order (index [i] is path [i]).
    @raise Invalid_argument when [num_paths] exceeds [limit] (default
    [65536]). *)

val num_kpaths : Cfg.program -> proc:Cfg.proc_id -> k:int -> int
(** Static count of k-iteration paths (D'Elia & Demetrescu): chains of
    up to [k] acyclic path components linked by the procedure's actual
    back edges — component [i < d] ends at a back-edge source through
    its pseudo exit, component [i + 1] starts at that edge's target.
    [num_kpaths ~k:1] equals {!num_paths}.

    @raise Invalid_argument when [k < 1] or when any intermediate count
    exceeds the same overflow limit {!analyze} enforces
    ([Bounds.bl_kpaths] is the saturating mirror: it reports [Overflow]
    exactly when this raises). *)

(** Online Ball–Larus profiler over the whole program.

    Feeds on VM transfers; maintains one path register per activation
    record (calls push, returns pop) and a count table per procedure.
    At a back edge the current path is counted through its pseudo exit
    edge and the register restarts through the pseudo entry edge, as in
    the original scheme. *)
module Runtime : sig
  type analysis := t

  type t

  val create : Cfg.program -> t
  (** Analyzes every procedure. *)

  val analysis : t -> Cfg.proc_id -> analysis

  val on_transfer : t -> Hotpath_vm.Vm.t -> unit
  (** Feed the transfer in the VM's cursor (transfers in execution
      order). *)

  val counts : t -> Cfg.proc_id -> (int * int) list
  (** [(path_number, count)] pairs for the procedure, descending count. *)

  val total_counted : t -> int
  (** Total completed acyclic paths across all procedures. *)

  val instrumented_ops : t -> int
  (** Chord increments executed so far — the runtime profiling cost of the
      spanning-tree-optimized scheme. *)

  val counter_space : t -> int
  (** Distinct path numbers with a live counter, across procedures. *)
end
