(** Online prediction sessions: the one driver of the replay lane loops.

    A session holds the full multiplexed replay state for one scheme and
    a set of delay lanes — scheme state, per-path descriptors, frequency
    and capture counters, accepted predictions, event sampler cursors —
    and accepts the instance stream as any {!Hotpath_trace.Batch.t}, the
    one decoded form every source produces ({!push_batch}).  Every
    replay runs through sessions: {!Replay.run_many} pushes a recording
    as one batch of its own arrays, {!Replay.run_many_mapped} the
    batches of a pull or mapped reader, and the serve daemon those of
    pushed bytes, so all three run the same
    lane loop for a given scheme (see {!section-loops}).  Batching is
    pure loop tiling: pushing a trace in any granularity (the
    differential suite drives 1, prime-sized, and larger-than-trace
    batches) produces outcomes, counter registries, and event streams
    bit-identical to one batch of the whole trace.

    Sessions also carry the trace lint gate online (on by default): each
    batch is checked against the program — newly declared paths, then
    every inter-instance hand-off including the seam from the previous
    batch — {e before} any session state moves, so a malformed trace
    pushed over a socket is rejected without corrupting the session
    ([Hotpath_trace.Lint.Incremental]).

    Sessions are single-owner (not thread-safe), like the rest of the
    per-lane replay state. *)

module Path_table = Hotpath_trace.Path_table
module Cfg = Hotpath_cfg.Cfg
module Events = Hotpath_util.Events

type prediction = { target : int; at_instance : int }
(** An accepted prediction: path [target] predicted hot at (0-based)
    instance index [at_instance]. *)

type outcome = {
  scheme_name : string;
  delay : int;
  total_instances : int;
  predictions : prediction array;
  predicted_at : int array;
  freq : int array;
  captured : int array;
  profiled_instances : int;
  captured_instances : int;
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}
(** One delay lane's result; identical to [Replay.outcome] (which is a
    re-export of this type). *)

type events
(** Event-emission configuration, shared with [Replay]. *)

val default_events_window : int

val events : ?window:int -> ?is_hot:(int -> bool) -> Events.sink -> events
(** See [Replay.events].  @raise Invalid_argument when [window < 1]. *)

(** {1:loops Lane loops}

    Each scheme family has exactly one per-instance loop over
    {!Hotpath_trace.Batch.t}, and a session is its only driver.
    {!create} runs the loop the scheme declares in {!Scheme.S.kernel}:
    the generic loop calls any {!Scheme.S} through its module, and four
    kernels inline the built-in families (NET with its once and
    last-executed-tail variants, path-profile, path-profile-k and
    NET-k) with their tables flattened into arrays over dense ids.
    {!Scheme.generic} sends a built-in through the generic loop, which
    is how the differential suites hold each kernel to its scheme. *)

type t

val create :
  ?events:events ->
  ?lint:bool ->
  ?on_predict:(delay:int -> target:int -> at_instance:int -> unit) ->
  (module Scheme.S) ->
  delays:int list ->
  program:Cfg.program ->
  table:Path_table.t ->
  (t, string) result
(** [create (module S) ~delays ~program ~table] opens a session
    multiplexing one lane per delay, against a path table that may keep
    growing (the streaming decode protocol extends it between batches; the
    session syncs per-path state on every push).  It applies the scheme's
    program-wide stage [S.create ~program] once and makes every lane
    from its result.

    [lint] (default [true]) runs the attach-time program gate
    immediately — [Error] if the program fails the structural linter —
    and the batch-wise trace linter on every push.  [on_predict] is
    called synchronously at each accepted prediction, in lane order
    within an instance — the online counterpart of reading
    [outcome.predictions] at the end.  It must not mutate the session.

    @raise Invalid_argument for delays the scheme itself rejects
    (mirroring the batch engine). *)

val push_batch : t -> Hotpath_trace.Batch.t -> (unit, string) result
(** Feed one decoded batch.  The gate is the incremental linter when
    enabled, id-range and arrival-code checks otherwise; either way,
    every path the table declared since the last push must have a head
    that is a program block (O(new paths), whatever the batch size).
    On [Error] — a batch length outside its arrays, lint rejection, a
    bad declared path, undeclared path id, invalid arrival code, or a
    finished session — no session state has changed: counters,
    predictions, and the event stream are exactly as before the call,
    so a server can drop one bad client without poisoning the
    session-independent state it shares.  The batch is read only during
    the call and may be refilled immediately after. *)

val instances : t -> int
(** Instances accepted so far. *)

val finish : t -> outcome list
(** Close the session: emit each lane's final event sample and return
    the outcomes in delay order — bit-identical to the batch engine run
    over the concatenation of everything pushed.  Idempotent; after
    [finish] every push returns [Error]. *)
