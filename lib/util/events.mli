(** Structured observability: a JSON-Lines event stream plus a
    process-wide counter/gauge registry.

    The paper's "less is more" argument is an accounting claim — NET wins
    because its counter space, profiling operations, and flush/bail
    behavior are cheaper {e over time}.  End-of-run aggregates cannot show
    that; this module makes the time series a product surface.  The replay
    engine, the delay sweeps, and the Dynamo simulator all emit typed
    events through a {!sink}, and [hotpath events-summary] renders the
    stream back into per-window tables.

    Emission is strictly an observation: producers are written so that an
    enabled sink never changes a computed outcome, and the differential
    test suite holds them to byte-identical results with events on and
    off.  The default sink is {!null}, and every producer skips its
    sampling work entirely when handed it, so the disabled cost is one
    pointer comparison per call site.

    One event is one line of flat JSON: [{"ev":"<kind>",...}] with
    integer, float, string, and boolean fields only — greppable, [jq]-able,
    and parseable by {!parse_line} without an external JSON dependency. *)

(** {1 Values and sinks} *)

type value = Int of int | Float of float | Str of string | Bool of bool

type sink
(** Where events go.  A sink counts the lines it has emitted. *)

val null : sink
(** The no-op sink: {!emit} on it does nothing.  Producers treat it as
    "events disabled" and skip sampling work entirely. *)

val is_null : sink -> bool

val of_buffer : Buffer.t -> sink

val of_channel : out_channel -> sink

val open_file : string -> sink
(** Truncating file sink.  @raise Sys_error on I/O failure.  Pair with
    {!close}. *)

val close : sink -> unit
(** Flush and release an {!open_file} sink (idempotent; no-op for the
    other constructors). *)

val emitted : sink -> int
(** Lines emitted through this sink so far (0 for {!null}, always). *)

val emit : sink -> kind:string -> (string * value) list -> unit
(** [emit sink ~kind fields] writes one JSON line with ["ev"] bound to
    [kind] followed by [fields] in the given order.  Field names must be
    distinct from ["ev"]; no escaping is applied to names (use plain
    identifiers). *)

(** {1 Typed event constructors}

    One function per event kind wired into the pipeline, so producers
    cannot drift from the schema the summary renderer and the tests
    expect.  All are no-ops on {!null}. *)

val replay_window :
  sink ->
  scheme:string ->
  delay:int ->
  seq:int ->
  upto:int ->
  instances:int ->
  predictions:int ->
  profiled:int ->
  captured:int ->
  profiling_ops:int ->
  collection_ops:int ->
  counter_space:int ->
  counter_space_hw:int ->
  ?hits:int ->
  ?noise:int ->
  unit ->
  unit
(** One replay sample window for one delay lane: [seq] is the 0-based
    window index, [upto] the instances processed when the sample was
    taken, [instances] the window's length (the last window may be
    short).  All remaining fields are cumulative for the lane —
    [counter_space_hw] is the high-water mark of [counter_space] across
    samples, and [hits]/[noise] (captured hot/cold flow so far) are
    present only when the caller knows the ground-truth hot set. *)

val sweep_point :
  sink ->
  scheme:string ->
  delay:int ->
  idx:int ->
  total:int ->
  profiled_pct:float ->
  hit_rate:float ->
  noise_rate:float ->
  predictions:int ->
  counter_space:int ->
  profiling_ops:int ->
  collection_ops:int ->
  unit
(** One sweep point ([idx] of [total], in delay order). *)

val sweep_done :
  sink ->
  scheme:string ->
  delays:int ->
  wall_s:float ->
  instances:int ->
  instances_per_s:float ->
  unit

val record_chunk :
  sink -> seq:int -> instances:int -> paths:int -> bytes_out:int -> unit
(** One flushed recording chunk: cumulative instance/path counts and
    bytes emitted to the trace sink so far. *)

val record_done : sink -> instances:int -> paths:int -> bytes_out:int -> unit

val check_diag :
  sink ->
  subject:string ->
  code:string ->
  severity:string ->
  loc:string ->
  message:string ->
  unit
(** One linter diagnostic from [hotpath check]: [subject] names the
    program or trace file, the remaining fields mirror the diagnostic
    record ([severity] is ["error"]/["warning"]/["info"], [loc] the
    rendered location, [code] the stable [Pxxx]/[Txxx] code). *)

val check_done :
  sink -> subjects:int -> errors:int -> warnings:int -> infos:int -> unit
(** End-of-run totals for one [hotpath check] invocation: how many
    subjects were linted and the diagnostic counts by severity. *)

val serve_accept : sink -> conn:int -> unit
(** The daemon accepted connection [conn] (a per-process sequence
    number). *)

val serve_attach :
  sink -> conn:int -> tenant:string -> scheme:string -> delays:int -> unit
(** A tenant session attached: the handshake parsed, the program frame
    decoded, and the attach-time lint gate passed. *)

val serve_done :
  sink ->
  conn:int ->
  tenant:string ->
  instances:int ->
  chunks:int ->
  predictions:int ->
  unit
(** A tenant's stream completed and its outcome was delivered;
    [predictions] sums accepted predictions across the delay lanes. *)

val serve_error :
  sink -> conn:int -> tenant:string -> code:string -> message:string -> unit
(** A tenant failed: [code] is one of ["handshake"], ["busy"],
    ["decode"], ["lint"], ["disconnect"], ["io"].  The failure is
    isolated to its connection — other tenants are unaffected. *)

val serve_stats :
  sink ->
  accepted:int ->
  completed:int ->
  errored:int ->
  active:int ->
  instances:int ->
  unit
(** Daemon lifetime totals, emitted at shutdown. *)

val dynamo_install :
  sink -> at:int -> path:int -> blocks:int -> instrs:int -> fragments:int -> unit
(** A fragment was installed for path [path] at instance [at];
    [fragments] counts installs so far. *)

val dynamo_flush :
  sink ->
  at:int ->
  reason:string ->
  window_preds:int ->
  baseline:float ->
  flushes:int ->
  cycles_flush:float ->
  unit
(** The fragment cache was flushed at instance [at]: [reason] is
    ["spike"] (the Section 6.1 phase heuristic) or ["pressure"] (cache
    full under the reject policy); [baseline] is the prediction-rate EWMA
    the spike was measured against (0 for pressure flushes). *)

val dynamo_bail :
  sink ->
  at:int ->
  streak:int ->
  overhead_delta:float ->
  interp_delta:float ->
  native_delta:float ->
  unit
(** The engine gave up at instance [at] after [streak] consecutive
    excessive windows; the deltas are the final window's cycles. *)

val dynamo_window :
  sink ->
  scheme:string ->
  delay:int ->
  seq:int ->
  upto:int ->
  full_hits:int ->
  partial_hits:int ->
  misses:int ->
  fragments:int ->
  flushes:int ->
  cycles_fragment:float ->
  cycles_interp:float ->
  cycles_profile:float ->
  cycles_overhead:float ->
  cycles_flush:float ->
  cycles_native:float ->
  unit
(** Periodic Dynamo cycle accounting, cumulative at instance [upto]. *)

val registry_snapshot : sink -> unit
(** Emit one ["registry"] event holding every registered counter's value
    and high-water mark (fields [<name>] and [<name>.hw], in registration
    order). *)

(** {1 Parsing}

    The inverse of {!emit}, for the summary renderer and the test suite.
    This is a parser for the flat JSON this module writes, not a general
    JSON parser: one object per line, scalar fields only. *)

val parse_line : string -> ((string * value) list, string) result
(** Parse one event line into its fields, ["ev"] included, in document
    order.  Unicode escapes other than the JSON two-character ones are
    rejected ([\uXXXX] is not needed by {!emit}, which escapes control
    bytes numerically but never emits multi-byte text). *)

val kind : (string * value) list -> string option
(** The ["ev"] field, if present. *)

val find_int : (string * value) list -> string -> int option
val find_float : (string * value) list -> string -> float option
(** [find_float] also accepts an [Int] field, widening it. *)

val find_str : (string * value) list -> string -> string option

(** {1 Counter/gauge registry}

    A process-wide table of named monotone counters and gauges, each
    tracking its high-water mark.  Domain-safe: all mutation goes through
    one mutex — callers are expected to touch it at window granularity,
    not per instance.  {!registry_snapshot} serializes it into the event
    stream. *)

module Registry : sig
  type counter

  val counter : string -> counter
  (** Intern (or find) the counter named [name].  Two calls with the same
      name return the same counter. *)

  val incr : counter -> unit

  val add : counter -> int -> unit
  (** Add [n] (may be negative for gauges); the high-water mark only ever
      rises. *)

  val set : counter -> int -> unit
  (** Gauge-style assignment, still tracked by the high-water mark. *)

  val value : counter -> int

  val high_water : counter -> int

  val name : counter -> string

  val snapshot : unit -> (string * (int * int)) list
  (** All counters as [(name, (value, high_water))], in registration
      order. *)

  val reset : unit -> unit
  (** Drop every registered counter (tests and repeated CLI runs). *)
end
