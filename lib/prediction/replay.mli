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
(** Shared with {!Session} — the online push API over the same walker —
    so batch and session results compare directly. *)

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
    with events on and off (property-tested), the per-instance cost of a
    disabled sampler is one integer comparison, and an enabled one does
    all its work at window boundaries. *)

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
(** 65,536 instances — the default chunk size for sharded replay,
    measured fastest on the net kernel (big enough to amortize seam
    bookkeeping, small enough to keep chunk-local side arrays in
    cache). *)

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

    [jobs] (default 1) parallelizes along the {e instance stream}: the
    trace is segmented into contiguous chunks of [chunk] instances
    (default {!default_chunk}), each chunk is replayed with scheme state
    carried across the seam, and per-chunk counters merge into the
    serial totals.  For the built-in NET and path-profile kernels the
    chunked engine replays from compressed per-chunk summaries (loop-head
    event positions and same-head runs) rather than re-walking raw
    instances, which is why [jobs = 4] beats [jobs = 1] even though the
    work still fans out over at most [min jobs (available domains)]
    workers ({!Hotpath_util.Pool.effective_workers} — the raw [jobs] ask
    never oversubscribes a small machine).  Results are byte-identical
    to [jobs = 1] for every job count and chunk size — the seam-carry
    protocol is property-tested [merged ≡ serial] per scheme, including
    the event stream: windows are buffered per worker and merged back
    into the exact serial emission order.  {!instance_reads} counts the
    logical traversal once ([+ length trace]) regardless of [jobs].
    When [jobs > 1] and events carry an [is_hot] closure, that closure
    is called from worker domains and must be domain-safe (the hot-set
    predicates in {!Hotpath_metrics} are pure array lookups).
    @raise Invalid_argument when any delay is [< 1], [jobs < 1] or
    [chunk < 1]. *)

(** {1 Monomorphized kernels}

    [run]/[run_many] on a packed module call the scheme through a
    first-class-module indirection per profiled instance.  {!Make}
    compiles the same multiplexed loop against a statically known scheme
    module.  For the built-in schemes ({!Net}, {!Net.Net_once},
    {!Net.Last_executed_tail}, {!Path_profile}) the packed entry points
    additionally dispatch to hand-specialized kernels that flatten the
    scheme's hashtable state into dense arrays — recognized by the
    physical identity of the packed [observe], so wrapping or re-deriving
    a scheme safely falls back to the generic loop.  The k-iteration
    families ({!Net_k}, {!Path_profile_k}) get the same treatment keyed
    on the identity of [create] instead ([observe] captures nothing
    instantiation-specific, so it is one shared closure across every k).
    All the loops are property-tested byte-identical; [bench kernel]
    measures the spread. *)

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
    are decoded one at a time into a reused dense batch, and the
    instance stream is never held.  Decode errors surface as [Error];
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
