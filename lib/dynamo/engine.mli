(** The Dynamo simulator: replay a recorded trace through the
    interpret / profile / predict / optimize / cache-execute loop and
    account cycles (Section 6 of the paper).

    Per path instance:

    - {e full hit} — a fragment for this exact path exists: the instance
      runs in the code cache at fragment speed (plus a link cost);
    - {e partial hit} — some fragment owns this head but the executed path
      diverges: the shared prefix runs at fragment speed, the remainder in
      the interpreter; the instance is still observed by the prediction
      scheme (Dynamo forms secondary trace heads at fragment exits);
    - {e miss} — fully interpreted and observed.

    Observed instances pay the scheme's recurring profiling cost; each
    prediction pays tail collection (NET) and fragment optimization, and
    installs a fragment.  A prediction-rate spike triggers a cache flush
    (the phase heuristic of Section 6.1); a full cache flushes too.  When
    fragment creation exceeds the bail-out threshold, Dynamo gives up and
    the rest of the run executes natively, as the paper describes for gcc
    and go.

    The stepper is allocation-free per instance: its cycle and
    instruction totals live in a float-only record, the fragment cache is
    indexed by path id ({!Fragment_cache.mem}, {!Fragment_cache.touch},
    {!Fragment_cache.longest_prefix}), and each path's profiling cost per
    arrival and its instruction prefix sums are memoized the first time
    the path is seen.  A partial hit compares blocks and reads one prefix
    sum.  Every sum keeps its operand order, so results are bit-identical
    to a plain per-instance evaluation. *)

module Scheme = Hotpath_prediction.Scheme
module Recorder = Hotpath_trace.Recorder
module Path = Hotpath_trace.Path

type scheme_costs = {
  per_instance : n_branches:int -> arrival:Path.head_kind -> float;
      (** Recurring profiling cycles for one observed instance.  Must be a
          pure function: the engine calls it for each of a path's three
          arrival kinds when it first observes the path, and memoizes the
          results. *)
  per_prediction : n_blocks:int -> n_instrs:int -> float;
      (** One-time cycles to materialize a prediction (collection +
          optimization). *)
}

val path_profile_costs : Cost_model.t -> scheme_costs
(** Bit-tracing costs: one shift per branch + one table update per
    instance; optimization only at prediction (the profiler already holds
    the path). *)

val net_costs : Cost_model.t -> scheme_costs
(** One counter bump per loop-head arrival; breakpoint-based tail
    collection plus optimization at prediction. *)

val static_costs : Cost_model.t -> scheme_costs
(** Zero recurring profiling cycles (the estimate was paid at compile
    time); materializing a prediction still costs NET's breakpoint
    collection plus optimization. *)

val costs_for : scheme:string -> Cost_model.t -> scheme_costs
(** Cost family by scheme name: [path-profile*] bit-tracing costs,
    ["static"] {!static_costs}, anything else (the NET family and its
    k-window variants) {!net_costs}. *)

type flush_policy = {
  fp_window : int;  (** Window length, in path instances. *)
  fp_factor : float;
      (** A window whose prediction count exceeds [fp_factor] times the
          EWMA baseline of earlier windows signals a phase change. *)
  fp_min : int;  (** Minimum window count for a spike to trigger a flush. *)
}

val default_flush_policy : flush_policy

type bail_policy = {
  bp_overhead_frac : float;
      (** Per-window trace-formation share of execution that counts as
          excessive. *)
  bp_interp_frac : float;
      (** Per-window interpretation share of execution above which the
          working set is judged to never materialize in the cache. *)
  bp_window : int;  (** Window length in path instances. *)
  bp_streak : int;
      (** Consecutive excessive windows before giving up — a warmup burst
          that subsides does not bail. *)
}

val default_bail_policy : bail_policy

type config = {
  scheme : Scheme.packed;
  scheme_costs : scheme_costs;
  delay : int;
  cost : Cost_model.t;
  cache_capacity : int;
  cache_eviction : Fragment_cache.eviction;
  flush_policy : flush_policy option;
  bail_policy : bail_policy option;
  events : Hotpath_util.Events.sink;
      (** Receives [dynamo_install] / [dynamo_flush] / [dynamo_bail]
          events as they happen plus one cumulative [dynamo_window]
          cycle-accounting sample every [events_window] instances (final
          short window included).  {!Hotpath_util.Events.null} — the
          default — disables all of it; emission never changes the
          {!result}. *)
  events_window : int;
}

val config :
  ?cost:Cost_model.t ->
  ?cache_capacity:int ->
  ?cache_eviction:Fragment_cache.eviction ->
  ?flush_policy:flush_policy option ->
  ?bail_policy:bail_policy option ->
  ?events:Hotpath_util.Events.sink ->
  ?events_window:int ->
  scheme:Scheme.packed ->
  scheme_costs:scheme_costs ->
  delay:int ->
  unit ->
  config
(** Defaults: {!Cost_model.default}, capacity 16384 with
    [Reject_when_full] (flush on pressure), {!default_flush_policy},
    {!default_bail_policy}, events disabled ([events_window] 8192).
    @raise Invalid_argument when [delay < 1], [events_window < 1], or the
    cost model fails validation. *)

type result = {
  r_scheme : string;
  r_delay : int;
  r_native_cycles : float;  (** The same trace executed natively. *)
  r_dynamo_cycles : float;
  r_speedup_pct : float;  (** [(native / dynamo - 1) * 100]. *)
  r_bailed : bool;
  r_fragments : int;  (** Fragments ever created. *)
  r_flushes : int;
  r_full_hits : int;
  r_partial_hits : int;
  r_misses : int;
  r_native_tail : int;  (** Instances run natively after bail-out. *)
  r_cycles_fragment : float;
  r_cycles_interp : float;
  r_cycles_profile : float;
  r_cycles_overhead : float;  (** Collection + optimization. *)
  r_cycles_flush : float;
  r_cache_coverage_pct : float;
      (** Instruction-weighted share of the (pre-bail) flow executed at
          fragment speed. *)
}

val run : config -> Recorder.t -> result

(** The per-instance execution logic behind {!run}, exposed so the live
    {!Online} driver shares it exactly: processing the same (path, arrival)
    sequence through a stepper yields bit-identical results whether the
    sequence comes from a recording or straight from the VM. *)
module Stepper : sig
  type t

  val create :
    config -> program:Hotpath_cfg.Cfg.program -> lookup:(int -> Path.t) -> t
  (** [lookup] resolves a predicted path id to its descriptor (an array for
      replays, a growing path table for the online driver). *)

  val step : t -> path:Path.t -> arrival:Path.head_kind -> unit

  val finalize : t -> result
end

val pp_result : Format.formatter -> result -> unit
