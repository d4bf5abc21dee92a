(** Trace recording: run the VM once, segment the transfer stream into
    interprocedural forward paths, and keep the whole execution as a dense
    sequence of path-instance ids.

    Everything the paper measures — path frequencies, hot sets, hit and
    noise rates for any scheme at any prediction delay, Dynamo cycle
    accounting — is then an O(trace) replay over the recorded arrays, with
    no re-interpretation.  This is what makes the full Figure 2/3 delay
    sweeps tractable (DESIGN.md §5). *)

module Cfg = Hotpath_cfg.Cfg

type t = private {
  program : Cfg.program;
  table : Path_table.t;
  instances : int array;  (** Path id per executed path instance, in order. *)
  arrivals : Bytes.t;
      (** Head kind per instance, as {!Path.arrival_code} bytes.  With
          [instances] this is a {!Batch.t}'s layout, so replay hands the
          two arrays to a session as they are. *)
  vm_stats : Hotpath_vm.Vm.run_stats;
}

val record :
  ?max_steps:int ->
  ?max_paths:int ->
  ?max_stack:int ->
  Cfg.program ->
  Hotpath_vm.Behavior.t ->
  rng:Hotpath_util.Prng.t ->
  t
(** Interpret the program and record its paths.  [max_steps] bounds
    executed blocks; [max_paths] stops after that many completed path
    instances.  Only {e completed} paths are recorded: a partial path cut
    off by fuel or the instance budget is discarded (a truncated prefix
    could collide with a genuine path that continues through bit-less
    transfers), while a path terminated by program exit is completed with
    end kind [Program_end].  For naturally exiting programs, concatenating
    the recorded paths' blocks reproduces the executed block sequence
    exactly. *)

type chunked_summary = {
  cs_instances : int;  (** Completed path instances recorded. *)
  cs_paths : int;  (** Distinct paths interned. *)
  cs_vm_stats : Hotpath_vm.Vm.run_stats;
}

val default_chunk_instances : int
(** Instances per flushed chunk when none is given (65,536). *)

val record_chunked :
  ?max_steps:int ->
  ?max_paths:int ->
  ?max_stack:int ->
  ?chunk_instances:int ->
  Cfg.program ->
  Hotpath_vm.Behavior.t ->
  rng:Hotpath_util.Prng.t ->
  flush:(table:Path_table.t -> ids:int array -> arrivals:Bytes.t -> len:int -> unit) ->
  finish:(table:Path_table.t -> vm_stats:Hotpath_vm.Vm.run_stats -> unit) ->
  chunked_summary
(** Incremental-flush recording: interpret the program exactly as
    {!record} does, but hand completed instances to [flush] in chunks of
    [chunk_instances] instead of materializing the whole stream.  [flush]
    receives the (shared, still-growing) path table plus the chunk: its
    [len] instance ids and arrival codes, the first [len] entries of
    [ids] and [arrivals] — each id references a path already in the
    table at flush time.  The two buffers are reused for the next chunk,
    so [flush] must copy what it keeps.  [flush] is called only with
    non-empty chunks, in trace order; [finish] is called exactly once, after the
    final flush, with the complete table and the VM statistics (also for
    an empty trace).  Peak memory is O(paths + chunk), not O(trace):
    together with {!Serialize.Stream} this is what lets paper-scale runs
    be recorded and replayed without ever holding the instance stream.
    The interning order, ids, and statistics are identical to {!record}'s
    at every chunk size.
    @raise Invalid_argument when [chunk_instances < 1]. *)

val of_parts :
  program:Cfg.program ->
  table:Path_table.t ->
  instances:int array ->
  arrivals:Bytes.t ->
  vm_stats:Hotpath_vm.Vm.run_stats ->
  (t, string) result
(** Reassemble a recording (deserialization support): [Ok] exactly when
    the trace linter ([Hotpath_trace.Lint.check_parts]) finds no
    error-severity diagnostic, else its first error as the message.  The
    linter covers the program's structure, instance ids in the table,
    one valid arrival byte per instance, path blocks inside the program,
    transfer legality, arrival consistency, head-set membership and
    end-kind plausibility.  Warnings (e.g. metadata that disagrees with
    a rescaled program) are tolerated — retrieve them with {!lint}. *)

val lint : t -> Hotpath_analysis.Diag.t list
(** Re-run the trace linter on an assembled recording.  Recordings made
    by {!record} and loads accepted by {!of_parts} report no
    error-severity findings; warnings may remain. *)

val num_instances : t -> int
(** Total flow: the number of path executions (the paper's [Flow]). *)

val num_paths : t -> int
(** Distinct paths (the paper's #Paths). *)

val instance_path : t -> int -> Path.t
(** Path executed by instance [i]. *)

val arrival : t -> int -> Path.head_kind

val frequencies : t -> int array
(** Execution count per path id — the paper's [freq(p)]. *)

val head_arrival_counts : t -> (Cfg.block_id, int) Hashtbl.t
(** Per head block: how many instances arrived at it via a backward taken
    transfer — the counter values a NET profiler with an infinite delay
    would accumulate. *)

val unique_loop_heads : t -> int
(** Distinct blocks ever arrived at as loop heads — NET's dynamic counter
    space. *)

val block_trace : t -> Cfg.block_id list
(** The executed block sequence, reconstructed by concatenating path
    blocks.  Intended for tests (linear in trace length but builds a
    list — do not call on large traces). *)
