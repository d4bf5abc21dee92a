(** Static block/edge frequency estimation (Wu–Larus 1994) from the
    {!Heuristics} branch probabilities.

    Per procedure, loops are processed innermost-first: one propagation
    pass per loop computes the head's {e cyclic probability} (expected
    back-edge flow per loop entry, capped at {!cp_cap}), and a final
    pass from the procedure entry scales every loop head by
    [1 / (1 - cp)].  The propagation is exact on reducible flow graphs;
    irreducible procedures fall back to a bounded iterative solver and
    are flagged {!proc_degraded} (surfaced as lint code P113).

    Program-level estimates combine per-procedure frequencies with
    call-graph invocation counts (closed form when the call graph is
    acyclic, bounded capped iteration under recursion). *)

open Hotpath_cfg

val cp_cap : float
(** [0.98] — ceiling on any cyclic probability, bounding the frequency
    multiplier of a single loop at 50 iterations per entry (the
    Wu–Larus convention).  Heads where the cap binds violate exact flow
    conservation; {!capped_heads} lists them. *)

(** {1 Per-procedure frequencies} *)

type proc_freq

val analyze_proc : Procgraph.t -> Loops.t -> Heuristics.t -> proc_freq
(** All three analyses must describe the same procedure. *)

val block_freq : proc_freq -> Cfg.block_id -> float
(** Expected executions of the block per invocation of its procedure
    (entry = 1, or [1/(1-cp)] when the entry heads a loop).
    @raise Invalid_argument when the block is not in the procedure. *)

val edge_freq : proc_freq -> src:Cfg.block_id -> dst:Cfg.block_id -> float
(** Expected traversals of the intra-procedural edge per invocation.
    @raise Invalid_argument when [src -> dst] is not a {!Procgraph}
    edge of the procedure. *)

val cyclic_prob : proc_freq -> Cfg.block_id -> float option
(** [Some cp] when the block heads a natural loop ([None] otherwise);
    already capped at {!cp_cap}. *)

val capped_heads : proc_freq -> Cfg.block_id list
(** Loop heads whose raw cyclic probability exceeded {!cp_cap},
    ascending.  Flow conservation is inexact at these blocks. *)

val proc_degraded : proc_freq -> bool
(** The procedure is irreducible and was solved by the bounded
    iterative fallback instead of the closed form. *)

val loops : proc_freq -> Loops.t
(** The loop analysis the frequencies were propagated over — what
    {!Kselect} reads the procedure's loops from. *)

(** {1 Whole-program estimate} *)

type t

val estimate : Cfg.program -> t
(** The whole-program estimate, linear in the program's size.  Pure and
    not memoized: a caller that needs it more than once computes it once
    and passes it on, as a scheme's [create ~program] stage does for
    all the delay lanes of a session. *)

val program : t -> Cfg.program

val of_proc : t -> Cfg.proc_id -> proc_freq

val invocation_freq : t -> Cfg.proc_id -> float
(** Estimated invocations of the procedure per program run ([main] gets
    one plus any incoming calls). *)

val global_freq : t -> Cfg.block_id -> float
(** [invocation_freq (proc of b) * block_freq b] — expected executions
    of the block per program run. *)

val degraded_procs : t -> Cfg.proc_id list
(** Procedures solved by the irreducible fallback, ascending. *)

val recursion_capped : t -> bool
(** The call graph is cyclic, so invocation frequencies come from the
    bounded capped iteration rather than the closed form. *)

val ranked_heads : t -> (Cfg.block_id * float) list
(** The {!Bounds.static_heads} [full] set — every block a backward
    transfer can reach at runtime — ranked by descending
    {!global_freq}, ties broken by ascending block id.  The static
    prediction scheme and the [hotpath static] report both read hot
    heads off this ranking. *)
