(** Trace-producing interpreter for the virtual CFG ISA.

    One {!step} executes the current basic block and performs its
    terminator, describing the transfer in a cursor held by the VM — the
    unit the path segmenter and the online profilers consume.  A step
    builds no record, option or closure: consumers read the {!cursor}'s
    fields before the next step overwrites them.  Conditional and indirect outcomes come
    from the {!Behavior.Decider}; the call stack and the run counters
    ({!stats}) live here. *)

module Cfg = Hotpath_cfg.Cfg

type kind =
  | T_branch  (** Conditional direct branch; {!taken} gives the outcome. *)
  | T_jump
  | T_indirect
  | T_call  (** Destination is the callee entry. *)
  | T_return  (** Destination is the caller's return-to block. *)
  | T_exit  (** Program termination; no destination. *)

type cursor = private {
  mutable src : Cfg.block_id;  (** Block just executed. *)
  mutable kind : kind;
  mutable taken : bool;  (** Outcome of a [T_branch]; meaningless otherwise. *)
  mutable dst : Cfg.block_id;  (** Destination block; [-1] only for [T_exit]. *)
  mutable backward : bool;
      (** True when the transfer lands at an address [<=] the source — the
          paper's criterion for a path-terminating transfer and for the
          destination being a potential path head.  Always [false] for
          [T_exit]. *)
}
(** The transfer made by the last {!step}.  One cursor per VM, rewritten
    in place by every step: read its fields, do not keep it as a record
    of a past transfer. *)

type t

val create : ?max_stack:int -> Cfg.program -> Behavior.t -> rng:Hotpath_util.Prng.t -> t
(** Interpreter positioned at the main procedure's entry.  [max_stack]
    bounds call depth (default 10_000).
    @raise Invalid_argument when the program fails {!Cfg.validate} (the
    builder validates on [finish], but programs can also arrive from
    deserialization or hand construction) or the behaviour fails
    {!Behavior.validate}. *)

val step : t -> bool
(** Execute one block and its terminator and describe the transfer in the
    {!cursor}.  [false] (cursor untouched) once the program has exited.
    A [Return] with an empty call stack terminates the program (reported
    as [T_exit]).
    @raise Failure on call-stack overflow. *)

val cursor : t -> cursor
(** The VM's cursor (the same record for the VM's whole life). *)

val blocks_executed : t -> int

type run_stats = {
  reason : [ `Exited | `Fuel ];
  blocks : int;  (** Blocks executed. *)
  branches : int;  (** Conditional branches executed. *)
  calls : int;
  returns : int;
  indirects : int;
  backward_transfers : int;
  max_stack : int;
}

val stats : t -> reason:[ `Exited | `Fuel ] -> run_stats
(** The counters of every transfer made since {!create}, stamped with
    [reason].  [max_stack] is the deepest call stack reached. *)

val pp_run_stats : Format.formatter -> run_stats -> unit

val run : ?max_steps:int -> t -> on_transfer:(t -> unit) -> run_stats
(** Drive {!step} until exit or until [max_steps] blocks have executed
    (default unbounded), calling [on_transfer] with the VM after every
    step, in order, so it can read the cursor. *)
