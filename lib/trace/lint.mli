(** Trace-vs-program consistency linter.

    Validates that a recording's path table and instance stream could
    have been produced by the {!Segmenter} running over the given
    program: every intra-path transfer is legal for its source block's
    terminator and goes forward, every inter-instance hand-off matches
    the previous path's ending transfer, every loop-head arrival is a
    backward transfer into the static head set
    ({!Hotpath_analysis.Bounds.static_heads}), and the recorded path
    metadata agrees with the program.

    Codes ([T2xx]; severities as noted):
    - [T201] instance references a path id outside the table
    - [T202] arrivals/instances length mismatch or invalid arrival byte
    - [T203] path structure: empty block list, block out of range, or
      signature head differing from the first block
    - [T204] illegal intra-path transfer (backward, target not reachable
      from the source terminator, continues past a matched return or
      exit)
    - [T205] recorded end kind impossible for the path's last block
    - [T206] entry arrival in the middle of the trace (error); trace not
      beginning with an entry arrival at the program entry (warning —
      partial traces and hand-built fixtures do this deliberately)
    - [T207] inter-instance hand-off impossible: the previous path's
      ending transfer cannot reach the next head
    - [T208] loop-head arrival that is not backward or whose head is
      outside the static potential-head set
    - [T209] continuation arrival that is not forward or does not follow
      a matched return / capped branch
    - [T210] (warning) stored [n_instrs]/[n_branches] disagree with the
      program (rescaled-program fixtures trip this legitimately)

    There is one walk: {!check_parts} lints a whole recording as a
    single {!Batch.t} over its own arrays through {!Incremental}, so a
    recording and a session's batches are judged by the same code.
    {!Recorder.of_parts} takes its verdict as the validation gate of
    every load. *)

open Hotpath_cfg
module Diag = Hotpath_analysis.Diag

val check_parts :
  program:Cfg.program ->
  table:Path_table.t ->
  instances:int array ->
  arrivals:Bytes.t ->
  Diag.t list
(** All diagnostics: program warnings, then path-table findings, then
    instance-stream findings in stream order.  If the program itself is
    structurally broken the program diagnostics are returned alone
    ([P1xx]).  It is {!Incremental.create}, one
    {!Incremental.check_batch} over the parts and
    {!Incremental.flush_paths}; only the arrivals-vs-instances length
    check ([T202], reported after the path findings, with no
    per-instance walk) is its own.  If some id or arrival byte is
    invalid ([T201]/[T202]) the hand-off walk is skipped. *)

(** Batch-wise linting for online sessions.

    Applies the [T2xx] checks one decoded {!Batch.t} at a time against
    a path table that grows between batches (the streaming decode
    protocol extends the table, then delivers the instances that
    reference the new paths).  The only inter-batch state is the
    previous instance's path facts, so batch boundaries are invisible:
    on a clean trace, the concatenation of every
    {!Incremental.check_batch} result plus {!Incremental.flush_paths}
    equals the {!check_parts} diagnostics for the whole trace (program
    diagnostics aside, which {!Incremental.create} reports once).

    A batch that produces any error is {e not committed}: the linter's
    seam state is left untouched, so a caller can reject the batch
    before mutating its own prediction state and remain consistent.
    (Path-structure findings are committed regardless — they belong to
    the table, which has already grown.) *)
module Incremental : sig
  type t

  val create :
    program:Cfg.program -> table:Path_table.t -> (t, Diag.t list) result
  (** [Error diags] iff the program itself fails the structural gate
      ([P1xx] errors); the trace checks would be meaningless. *)

  val program_diags : t -> Diag.t list
  (** Program-level warnings from the structural gate (empty or
      warnings only — errors surface through [create]). *)

  val check_batch : t -> Batch.t -> Diag.t list
  (** Lint newly declared paths, the batch's ids and arrival bytes, and
      every inter-instance hand-off including the seam from the previous
      batch.  Commits the seam state only when no error was found. *)

  val flush_paths : t -> Diag.t list
  (** Lint paths declared since the last call without consuming any
      instances — for end-of-stream table extensions. *)

  val instances : t -> int
  (** Instances accepted (committed) so far. *)
end
