(** Young–Smith k-bounded general path profiling (TOPLAS 1999).

    A k-bounded general path is the sequence of the last [k] executed
    conditional branches — unlike Ball–Larus forward paths it may cross
    backward edges.  The profiler keeps a FIFO of the most recent [k]
    branch outcomes; every executed branch completes a new window, whose
    count is bumped (the paper's "lazy" update).

    The paper cites this as the third path-profiling flavour; here it
    also serves as a correlation-sensitive baseline: its window counts
    expose branch correlation that isolated edge profiles miss. *)

module Cfg = Hotpath_cfg.Cfg

type window = {
  w_branches : (Cfg.block_id * bool) array;
      (** The last [k] (branch block, outcome) pairs, oldest first. *)
}

val window_to_string : window -> string
(** E.g. ["(B3:1)(B5:0)"]. *)

type t

val create : k:int -> t
(** @raise Invalid_argument unless [1 <= k <= 32]. *)

val k : t -> int

val on_transfer : t -> Hotpath_vm.Vm.t -> unit
(** Feed one VM transfer; only conditional branches affect the FIFO. *)

val branches_seen : t -> int

val counts : t -> (window * int) list
(** (window, count), descending count.  Windows shorter than [k] (the
    warm-up prefix) are not counted. *)

val counter_space : t -> int
(** Distinct windows with a live counter. *)

val top : t -> n:int -> (window * int) list
(** The [n] hottest windows. *)
