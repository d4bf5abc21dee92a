(** Branch behaviour models.

    The paper's measurements are functions of the dynamic branch trace, so
    the workload substitute drives every conditional branch and indirect
    jump from a stochastic model.  Models are deterministic given the
    generator seed. *)

module Cfg = Hotpath_cfg.Cfg

type branch_model =
  | Always of bool  (** Unconditionally taken / not taken. *)
  | Bias of float
      (** Taken with fixed probability.  [Bias 0.95] yields a dominant path;
          [Bias 0.5] a flat path mix. *)
  | Correlated of { bits : int; taken_prob : float array }
      (** Probability of taken indexed by the low [bits] of the global
          branch-history register — models the branch correlation that path
          profiling captures and isolated edge counts miss.
          [Array.length taken_prob = 1 lsl bits]; [bits <= 16]. *)
  | Periodic of bool array
      (** Deterministic cycle over the branch's own execution count —
          e.g. [[|true; true; false|]] exits a loop every third iteration. *)
  | Phased of (int * branch_model) array
      (** [(until_step, model)] pairs by ascending step threshold: the model
          whose threshold first exceeds the VM's global step count applies;
          the last entry applies forever after.  Models program phase
          changes (Section 6.1 of the paper). *)

type indirect_model =
  | Uniform_target  (** Uniform over the indirect target list. *)
  | Weighted_target of float array
      (** Probability proportional to weight, by target index. *)
  | Phased_target of (int * float array) array
      (** Step-phased weights, same convention as {!Phased}. *)

type t
(** Behaviour assignment for one program: a branch model per conditional
    branch and an indirect model per indirect jump. *)

val create :
  Cfg.program ->
  ?default_branch:branch_model ->
  ?default_indirect:indirect_model ->
  unit ->
  t
(** Fresh behaviour where every branch follows [default_branch] (default
    [Bias 0.5]) and every indirect jump [default_indirect] (default
    [Uniform_target]). *)

val set_branch : t -> Cfg.block_id -> branch_model -> unit
(** Assign a model to the branch terminating [block].  @raise
    Invalid_argument when the block's terminator is not [Branch]. *)

val set_indirect : t -> Cfg.block_id -> indirect_model -> unit
(** @raise Invalid_argument when the block's terminator is not
    [Indirect]. *)

val branch_model : t -> Cfg.block_id -> branch_model

val indirect_model : t -> Cfg.block_id -> indirect_model

val validate : t -> (unit, string) result
(** Check model well-formedness: probabilities in [\[0,1\]], correlated
    tables of length [2^bits] with [0 < bits <= 16], non-empty periodic
    patterns, phased schedules non-empty with ascending thresholds,
    weighted target vectors matching the target-list length with a positive
    sum. *)

(** Decision state threaded by the VM: global branch-history register,
    per-branch execution counts, and the random stream.  The models are
    compiled at creation: every indirect weight vector is summed once
    ({!Hotpath_util.Prng.cumulative_weights}), and a phased model keeps
    its current phase, which only advances, so a decision neither
    re-sums weights nor rescans a schedule. *)
module Decider : sig
  type behavior := t

  type t

  val create : behavior -> rng:Hotpath_util.Prng.t -> t
  (** @raise Invalid_argument on a weight vector {!validate} rejects. *)

  val decide_branch : t -> Cfg.block_id -> step:int -> bool
  (** Outcome for the conditional branch at [block] when it is the
      [step]-th block executed (1-based; phased models compare it with
      their thresholds); updates history and counts.  [step] must not
      decrease from one decision to the next. *)

  val decide_indirect :
    t -> Cfg.block_id -> targets:Cfg.block_id array -> step:int -> Cfg.block_id
  (** Target choice for the indirect jump at [block], [step] as for
      {!decide_branch}: the index {!Hotpath_util.Prng.pick_weighted} would
      draw from the model's weights (uniform: {!Hotpath_util.Prng.int}). *)
end
