(** Replay a recorded trace through an online prediction scheme.

    The engine models a dynamic compilation system: instances of a path
    that has already been predicted execute inside the code cache and are
    {e not} observed by the scheme (no profiling cost); every other
    instance is profiled.  A prediction made at instance [i] takes effect
    for instances after [i] — the triggering instance itself is still
    profiled flow, giving the paper's [captured = freq - τ] accounting for
    path-profile-based prediction. *)

type prediction = Session.prediction = {
  target : int;  (** Predicted path id. *)
  at_instance : int;  (** Trace position where the prediction fired. *)
}
(** Shared with {!Session} — the online push API that every replay
    drives — so batch and session results compare directly. *)

type outcome = Session.outcome = {
  scheme_name : string;
  delay : int;
  total_instances : int;
  predictions : prediction array;  (** In firing order. *)
  predicted_at : int array;
      (** Per path id: the instance index at which it was predicted, or
          [max_int] if never. *)
  freq : int array;  (** Per path id: total executions (freq(p)). *)
  captured : int array;
      (** Per path id: executions strictly after its prediction — the flow
          a real system would run from the code cache. *)
  profiled_instances : int;  (** Instances observed by the scheme. *)
  captured_instances : int;  (** Sum of [captured]. *)
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}

(** {1 Observability}

    Replay optionally emits one {!Hotpath_util.Events.replay_window}
    sample per [window] instances per delay lane, plus a final sample so
    the last window's cumulative fields always equal the outcome's
    totals.  Sampling is observation only: outcomes are byte-identical
    with events on and off (property-tested), and the lane loops never
    see the sampler: sessions cut each batch at window ends and sample
    between loop calls. *)

type events

val default_events_window : int
(** 32,768 instances — large enough that per-window emission stays well
    under 1% of replay throughput. *)

val events :
  ?window:int -> ?is_hot:(int -> bool) -> Hotpath_util.Events.sink -> events
(** [events sink] configures window sampling into [sink].  Passing the
    {!Hotpath_util.Events.null} sink is the same as passing no events at
    all — sampling is skipped entirely.  [is_hot]
    (ground-truth hot-set membership by path id) enables the cumulative
    [hits]/[noise] fields; without it they are omitted — a streamed
    replay cannot know the hot set mid-pass.
    @raise Invalid_argument when [window < 1]. *)

val run :
  ?events:events ->
  Scheme.packed ->
  delay:int ->
  Hotpath_trace.Recorder.t ->
  outcome
(** @raise Invalid_argument when [delay < 1]. *)

val run_many :
  ?events:events ->
  Scheme.packed ->
  delays:int list ->
  Hotpath_trace.Recorder.t ->
  outcome list
(** Multiplexed replay: one scheme state per delay, all driven through a
    {e single} traversal of the instance stream.  Returns one outcome per
    delay, in the given order, each bit-identical to the corresponding
    [run ~delay] — the scheme states are independent, so multiplexing is
    purely an amortization of the trace walk (delay sweeps drop from
    O(delays × trace) to O(trace) instance reads).

    One {!Session} holds every delay lane and runs on the calling
    domain.  The recording is handed to it as one batch of its own
    arrays ({!Hotpath_trace.Batch.t} has the recording's layout), so no
    instance is copied.
    {!instance_reads} counts the traversal once ([+ length trace]).
    @raise Invalid_argument when any delay is [< 1]. *)

(** {1 Lane loops}

    Every replay — materialized ({!run_many}), mapped or pulled
    ({!run_many_mapped}), and pushed ({!Session}) — runs one
    {!Session} over {!Hotpath_trace.Batch.t}s, and each scheme
    family has exactly one lane loop, the one the scheme declares in
    {!Scheme.S.kernel}: the built-in NET variants, path-profile,
    path-profile-k and NET-k declare kernels that flatten the scheme's
    hashtable state into dense arrays, and every other scheme declares
    the generic loop, which calls the scheme through its module.
    [run_many (Scheme.generic s)] replays [s] through the generic loop:
    it is the reference the kernels are property-tested byte-identical
    against; [bench kernel] measures the spread. *)

val run_mapped :
  ?events:events ->
  Scheme.packed ->
  delay:int ->
  Hotpath_trace.Serialize.Stream.reader ->
  (outcome, string) result
(** Replay from an HOTPATH3 reader, pull
    ({!Hotpath_trace.Serialize.Stream.open_file}) or mapped
    ({!Hotpath_trace.Serialize.Stream.Mapped.map_file}).
    Field-by-field identical to [run ~delay] on the recording the stream
    serializes, but peak memory is O(paths + frame): instance frames
    are decoded one at a time into a reused batch, replayed by the same
    lane loop as {!run}, and the instance stream is never held.  Decode errors surface as [Error];
    the reader is left poisoned at the failure.
    @raise Invalid_argument when [delay < 1]. *)

val run_many_mapped :
  ?events:events ->
  Scheme.packed ->
  delays:int list ->
  Hotpath_trace.Serialize.Stream.reader ->
  (outcome list, string) result
(** Multiplexed {!run_mapped}: a single traversal of the stream, one
    outcome per delay, each identical to the materialized
    [run ~delay].  Each decoded frame is pushed to one {!Session} that
    holds every lane, so lane state carries across frame seams and
    {!instance_reads} counts the stream once.  An empty [delays]
    returns [Ok []] without touching the reader.
    @raise Invalid_argument when any delay is [< 1]. *)

val instance_reads : unit -> int
(** Total logical instance-stream reads performed by replay since the
    last {!reset_instance_reads} — the observable backing the one-pass
    guarantee of {!run_many}: [run_many ~delays] adds [length trace],
    not [length delays * length trace]. *)

val reset_instance_reads : unit -> unit

val predicted_paths : outcome -> int list
(** Path ids predicted, ascending. *)

val pp_summary : Format.formatter -> outcome -> unit
