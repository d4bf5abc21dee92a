(** Prediction-delay sweeps — the data behind Figures 2 and 3.

    For each delay τ the scheme is replayed over the recorded trace and one
    point (profiled-flow %, hit rate, noise rate, costs) is produced.  The
    X axis of the paper's figures is the profiled-flow share, which grows
    monotonically with τ. *)

type point = {
  delay : int;
  profiled_pct : float;
  hit_rate : float;
  noise_rate : float;
  predictions : int;
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}

type timing = {
  wall_s : float;  (** Wall-clock seconds for the whole sweep. *)
  instances : int;  (** Trace length (instances read once, not per delay). *)
  instances_per_s : float;
}

val default_delays : int list
(** The paper's range: 10 to 1,000,000, log-spaced. *)

val run :
  ?events:Hotpath_util.Events.sink ->
  ?events_window:int ->
  Hotpath_prediction.Scheme.packed ->
  Hotpath_trace.Recorder.t ->
  hot:Hot_set.t ->
  delays:int list ->
  point list
(** One point per delay, in the given order.  All delays are multiplexed
    through a single traversal of the trace ({!Replay.run_many}), so a
    full sweep costs one replay rather than one per delay.

    When [events] is a live sink, the replay emits per-window
    [replay_window] samples (every [events_window] instances; hits/noise
    included, since the hot set is known up front) and the sweep follows
    them with one [sweep_point] per delay.  Emission never changes the
    returned points. *)

val run_timed :
  ?events:Hotpath_util.Events.sink ->
  ?events_window:int ->
  Hotpath_prediction.Scheme.packed ->
  Hotpath_trace.Recorder.t ->
  hot:Hot_set.t ->
  delays:int list ->
  point list * timing
(** {!run} plus wall-clock accounting for throughput reporting (and a
    final [sweep_done] event when [events] is live). *)

val run_stream :
  ?events:Hotpath_util.Events.sink ->
  ?events_window:int ->
  Hotpath_prediction.Scheme.packed ->
  Hotpath_trace.Serialize.Stream.reader ->
  threshold:float ->
  delays:int list ->
  (point list, string) result
(** {!run} over an HOTPATH3 reader on any feed
    ({!Replay.run_many_mapped}): one traversal of the stream, constant
    memory in the trace length.
    The hot set is ground truth from full-run frequencies, so it cannot
    pre-exist the walk; it is computed at [threshold] from the streamed
    outcome's frequencies — [run_stream ~threshold] equals [run] with
    [hot = Hot_set.compute ... ~threshold] on the materialized trace.
    Stream decode errors surface as [Error].  [events] behaves as in
    {!run} except the single-pass [replay_window] samples omit
    hits/noise — the hot set does not exist until the walk ends. *)

val pp_timing : Format.formatter -> timing -> unit

val interpolate_hit_at : point list -> profiled_pct:float -> float option
(** Linear interpolation of the hit rate at a given profiled-flow
    percentage ([None] outside the swept range).  Used to read "hit rate at
    10% profiled flow" off a sweep, as the paper does. *)

val interpolate_noise_at : point list -> profiled_pct:float -> float option

val pp_point : Format.formatter -> point -> unit
