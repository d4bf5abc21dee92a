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

val default_chunk : int
(** 65,536 instances — the default batch size when several lane groups
    replay a recording, and the compressed engines' chunk (big enough
    to amortize handing a batch to other domains, small enough to keep
    chunk-local side arrays in cache). *)

val run_many :
  ?events:events ->
  ?jobs:int ->
  ?chunk:int ->
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

    [jobs] (default 1) splits the delay lanes into contiguous groups,
    one {!Session} each, as many as
    {!Hotpath_util.Pool.effective_workers} allows (the raw [jobs] ask
    never oversubscribes a small machine).  The recording is copied
    into one reused batch at a time, and every group replays each
    batch, with all lane state carried across the seams.  Batches hold
    [chunk] instances (default {!default_chunk}) when there are several
    groups, and at most 4,096 when there is one, which keeps the batch
    in cache and the replay's major-heap allocation small.
    With events off, NET, NET-once and path-profile at [jobs > 1]
    instead replay from compressed summaries of the recording
    (loop-head runs, occurrence-threshold triggers) rather than
    re-walking raw instances, which is why [jobs = 4] beats [jobs = 1]
    even on one core.  Results are byte-identical to [jobs = 1] for
    every job count and chunk size — property-tested per scheme,
    including the event stream: windows are buffered per group and
    merged back into the exact serial emission order.
    {!instance_reads} counts the logical traversal once
    ([+ length trace]) regardless of [jobs].  When [jobs > 1] and
    events carry an [is_hot] closure, that closure is called from
    worker domains and must be domain-safe (the hot-set predicates in
    {!Hotpath_metrics} are pure array lookups).
    @raise Invalid_argument when any delay is [< 1], [jobs < 1] or
    [chunk < 1]. *)

(** {1 Lane loops}

    Every replay — materialized ({!run_many}), mapped or pulled
    ({!run_many_mapped}), and pushed ({!Session}) — runs one lane group
    per {!Session} over {!Hotpath_trace.Batch.t}s, and each scheme
    family has exactly one lane loop ({!Session.kernel}): the built-in
    NET variants, path-profile, path-profile-k and NET-k get kernels
    that flatten the scheme's hashtable state into dense arrays, and
    every other scheme runs the generic loop, which calls the scheme
    through its module.  Built-ins are recognized by physical identity,
    so wrapping or re-deriving a scheme safely falls back to the
    generic loop.  {!Make} always runs the generic loop: it is the
    reference the kernels are property-tested byte-identical against;
    [bench kernel] measures the spread. *)

module Make (S : Scheme.S) : sig
  val run :
    ?events:events -> delay:int -> Hotpath_trace.Recorder.t -> outcome

  val run_many :
    ?events:events ->
    ?jobs:int ->
    ?chunk:int ->
    delays:int list ->
    Hotpath_trace.Recorder.t ->
    outcome list
end

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
  ?jobs:int ->
  Scheme.packed ->
  delays:int list ->
  Hotpath_trace.Serialize.Stream.reader ->
  (outcome list, string) result
(** Multiplexed {!run_mapped}: a single traversal of the stream, one
    outcome per delay, each identical to the materialized
    [run ~delay].  An empty [delays] returns [Ok []] without touching
    the reader.

    [jobs] (default 1) fans each decoded frame out over contiguous lane
    groups (clamped to the domain budget, like {!run_many}).  All
    groups replay the same shared batch, so jobs > 1 adds no decode
    work and no copies; lane state carries across frame seams inside
    its owning group, so results and the merged event stream are
    byte-identical at every job count, and {!instance_reads} still
    counts the stream once.
    @raise Invalid_argument when any delay is [< 1] or [jobs < 1]. *)

val instance_reads : unit -> int
(** Total logical instance-stream reads performed by {!run}/{!run_many}
    since the last {!reset_instance_reads} — the observable backing the
    one-pass guarantee of {!run_many} ([run_many ~delays] adds
    [length trace], not [length delays * length trace], and [?jobs]
    does not change that: sharding parallelizes the one logical
    traversal, it never multiplies it). *)

val reset_instance_reads : unit -> unit

val predicted_paths : outcome -> int list
(** Path ids predicted, ascending. *)

val pp_summary : Format.formatter -> outcome -> unit
