(** Profile-guided k selection for the k-iteration scheme family
    (ROADMAP item 4): choose a per-loop-head window length k from the
    static estimate alone.

    A longer window only pays off when (a) the loop is expected to
    iterate long enough to fill and trip a k-window — the {!Freq}
    cyclic probability gives expected iterations per entry — and (b)
    the k-th power of the loop body's path count stays within a counter
    budget, since distinct windows (and so counter space) grow like
    [paths^k].  Each head gets the largest [k <= max_k] satisfying
    both; every other block (including non-loop-head members of the
    dynamic head set) stays at [k = 1]. *)

open Hotpath_cfg

val default_max_k : int
(** [3] — matches the fixed-k range evaluated in EXPERIMENTS.md. *)

val default_budget : int
(** [4096] — per-head ceiling on the estimated distinct k-windows. *)

type choice = {
  head : Cfg.block_id;
  k : int;
  iterations : float;  (** Estimated iterations per loop entry. *)
  body_paths : Bounds.count;
      (** Acyclic-path proxy of the loop body: the product of the
          branching factors of its multi-way terminators. *)
}

type t

val analyze : ?max_k:int -> ?budget:int -> Freq.t -> t
(** Choices for every natural loop of the estimated program, read off
    the loops each procedure's estimate was propagated over
    ({!Freq.loops}). *)

val k_for : t -> Cfg.block_id -> int
(** Selected window length for a head block; [1] for any block that
    heads no natural loop. *)

val choices : t -> choice list
(** One entry per natural-loop head, ascending by head block. *)

val max_selected : t -> int
(** Largest selected k across the program ([1] when loop-free). *)
