(** Online hot-path prediction schemes (Section 4 of the paper).

    A scheme observes path instances in execution order and occasionally
    predicts a path as hot.  The {!Replay} engine drives a scheme over a
    recorded trace, withholding instances of already-predicted paths (they
    execute inside the code cache in a real system) and accounting the
    scheme's runtime costs:

    - {e profiling operations} — recurring work per observed instance
      (bit shifts and table updates for path-profile-based prediction,
      one counter increment per loop-head arrival for NET);
    - {e collection operations} — one-time work to materialize a predicted
      path (NET's incremental breakpoints; free for path-profile-based
      prediction, which already holds the path);
    - {e counter space} — live counters allocated so far. *)

module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path

(** The lane loop a session runs for a scheme: [Generic] calls the
    scheme through its module once per profiled instance; every other
    constructor names a hand-written loop in {!Session} that inlines
    that built-in scheme with its tables flattened into arrays. *)
type kernel =
  | Generic
  | Net  (** {!Net}. *)
  | Net_once  (** {!Net.Net_once}. *)
  | Last_executed_tail  (** {!Net.Last_executed_tail}. *)
  | Path_profile  (** {!Path_profile}. *)
  | Net_k of int  (** {!Net_k.make} [k]. *)
  | Path_profile_k of int  (** {!Path_profile_k.make} [k]. *)

module type S = sig
  type t

  val name : string

  val kernel : kernel
  (** The loop that replays this scheme.  A kernel other than [Generic]
      is a promise that the scheme's functions behave exactly like the
      built-in it names, since the session then never calls them (apart
      from [create] to validate delays).  A module that redefines
      [create] or [observe] must therefore declare [Generic], which is
      what {!generic} does.  The kernel-vs-generic differentials hold
      each built-in's declaration to its scheme. *)

  val create : program:Cfg.program -> delay:int -> t
  (** [create ~program ~delay]: fresh scheme state with prediction delay
      [delay] (the paper's τ).

      [create] is staged.  [create ~program] does the scheme's
      program-wide work (for [static] and the kauto schemes, the
      Wu–Larus estimate) and never raises; the function it returns is
      applied once per delay and validates it.  A caller that runs
      several delays on one program ({!Session}'s lanes) applies
      [~program] once and shares the result; a full application pays
      the program-wide work each time.
      @raise Invalid_argument when [delay < 1] (from the delay stage). *)

  val observe :
    t ->
    head:Cfg.block_id ->
    arrival:Path.head_kind ->
    path_id:int ->
    n_branches:int ->
    n_blocks:int ->
    int option
  (** Feed one (not-yet-predicted) path instance; [Some p] predicts path
      [p] as hot, effective for subsequent instances.  Offering a path is
      free: collection work is charged via {!collect} only when the
      driver {e accepts} the prediction (the target was not already in
      the code cache) and actually materializes the path. *)

  val collect : t -> n_blocks:int -> unit
  (** Charge the one-time collection cost of materializing an accepted
      prediction whose path spans [n_blocks] blocks.  Called by the
      driver exactly once per accepted prediction; a dropped offer (the
      target was already predicted) costs nothing. *)

  val counter_space : t -> int

  val profiling_ops : t -> int

  val collection_ops : t -> int
end

type packed = (module S)

val name : packed -> string

val generic : packed -> packed
(** The same scheme, declaring [Generic]: it keeps every function and
    the name, and replays through the reference loop.  The only way to
    ask for that loop for a built-in. *)
