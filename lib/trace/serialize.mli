(** Versioned binary serialization of recorded traces.

    Recording is the expensive step (one full interpretation); persisting
    the result lets a trace be recorded once and replayed by any number of
    analysis processes — `hotpath record`/`--trace` style workflows.

    Two on-disk formats coexist:

    - {b HOTPATH2} — the legacy single-blob format: program (blocks,
      terminators, procedures), interned path table, the instance and
      arrival arrays, and the VM run statistics, parsed from one
      contiguous string.
    - {b HOTPATH3} — the {!Stream} format: the same field encodings, but
      framed into length-prefixed, CRC-32-protected chunks (program
      header, incremental path-table frames, instance/arrival chunks of
      {!Stream.default_chunk_instances} instances, and an end frame with
      the VM statistics and totals).  Both ends are constant-memory: the
      writer flushes as it goes, and one frame parser reads the stream a
      frame at a time, fed from a channel, a mapping, or pushed bytes,
      so traces far larger than RAM can be recorded and replayed.

    All integers are little-endian.  Bounded ids and lengths are 32-bit
    and writing raises [Invalid_argument] if a value does not fit (no
    silent truncation); unbounded counts (block weights, per-path
    instruction counts, instance totals, VM statistics) are 64-bit.
    Loading validates structure (via {!Recorder.of_parts} — which since
    the lint hook also runs the full trace linter, [Hotpath_trace.Lint]
    — or the stream parser's frame-by-frame checks) and fails with a
    message rather than crashing on corrupt input — the serializer fuzz
    suite holds both formats, and every HOTPATH3 feed, to that.  For
    diagnostics instead of a bare error message, lint a file with
    [Hotpath_trace.Check.file]. *)

module Cfg = Hotpath_cfg.Cfg

val magic : string
(** The legacy single-blob magic, ["HOTPATH2"]. *)

val write : Recorder.t -> Buffer.t -> unit
(** Append the serialized recording (HOTPATH2).
    @raise Invalid_argument if a 32-bit field (id, length) overflows. *)

val read : string -> pos:int -> (Recorder.t * int, string) result
(** [read s ~pos] parses a HOTPATH2 recording serialized at offset [pos]
    of [s]; returns the recording and the offset just past it. *)

val to_string : Recorder.t -> string
(** HOTPATH2 blob. *)

val of_string : string -> (Recorder.t, string) result
(** Requires the whole string to be exactly one recording, in either
    format (dispatched on the magic). *)

val save : Recorder.t -> path:string -> unit
(** Write an HOTPATH2 file.  @raise Sys_error on I/O failure.  Prefer
    {!Stream.save} for new traces. *)

val load : path:string -> (Recorder.t, string) result
(** Read back from a file in either format; I/O errors are returned as
    [Error].  HOTPATH3 files are read frame-by-frame — peak memory is
    O(frame) beyond the materialized result — while HOTPATH2 falls back
    to the whole-file parser. *)

(** The HOTPATH3 framed stream format.

    Layout: the magic ["HOTPATH3"], then frames of
    [kind:u8 | payload_len:i32le | payload | crc32:u32le], the CRC-32
    (IEEE) covering the five header bytes and the payload.  Frame kinds:

    - {e 0, program} — exactly one, first: the {!Cfg.program}.
    - {e 1, paths} — path-table records in dense id order; may appear
      repeatedly, each frame extending the table.  Written incrementally,
      so a recording being flushed mid-run only ships the paths that are
      new since the previous flush.
    - {e 2, instances} — a chunk: instance count [n], [n] path ids
      (each already declared by a preceding paths frame), [n] arrival
      bytes.
    - {e 3, end} — exactly one, last: VM statistics plus total instance
      and path counts, cross-checked against what the stream carried.

    A reader decodes one frame at a time; a writer never buffers more
    than one frame.  Any torn write, bit flip, corrupted length field,
    or truncation surfaces as [Error] at read time — the CRC makes every
    single-byte corruption of a valid stream detectable, which the fuzz
    suite exercises. *)
module Stream : sig
  val magic : string
  (** ["HOTPATH3"]. *)

  val default_chunk_instances : int
  (** Instances per chunk when none is given (65,536 — a few hundred KB
      per frame). *)

  val max_frame_payload : int
  (** Upper bound on a single frame's payload (64 MiB); larger path
      tables and chunks are split across frames by the writer, and a
      corrupt length field past the bound is rejected without
      allocation. *)

  (** {1 Writing} *)

  type writer

  val writer : (string -> unit) -> program:Cfg.program -> writer
  (** [writer sink ~program] emits the magic and the program frame to
      [sink] and returns a writer for incremental flushing.  [sink] is
      called with consecutive byte slices (e.g. [output_string oc].)
      @raise Invalid_argument if the program fails {!Cfg.validate}. *)

  val write_chunk :
    writer -> table:Path_table.t -> ids:int array -> arrivals:Bytes.t -> unit
  (** Flush one chunk: any table paths not yet on the wire are emitted
      first (as paths frames), then the instances.  Matches the contract
      of {!Recorder.record_chunked}'s [flush] callback.  Ids are not
      re-validated here — the reader enforces that every id is declared.
      @raise Invalid_argument on arrival/id length mismatch or after
      [finish]. *)

  val finish :
    writer -> table:Path_table.t -> vm_stats:Hotpath_vm.Vm.run_stats -> unit
  (** Emit any remaining paths and the end frame.  Must be called exactly
      once; the stream is invalid without it (a crash mid-write is
      detected as a truncated stream at read time).
      @raise Invalid_argument if already finished. *)

  val write : ?chunk_instances:int -> Recorder.t -> (string -> unit) -> unit
  (** Serialize a whole materialized recording to a sink in chunks. *)

  val to_string : ?chunk_instances:int -> Recorder.t -> string

  val save : ?chunk_instances:int -> Recorder.t -> path:string -> unit
  (** @raise Sys_error on I/O failure. *)

  val record :
    ?max_steps:int ->
    ?max_paths:int ->
    ?max_stack:int ->
    ?chunk_instances:int ->
    ?events:Hotpath_util.Events.sink ->
    Cfg.program ->
    Hotpath_vm.Behavior.t ->
    rng:Hotpath_util.Prng.t ->
    sink:(string -> unit) ->
    Recorder.chunked_summary
  (** Record straight to a sink: {!Recorder.record_chunked} wired to a
      {!writer}.  The instance stream is never materialized — peak memory
      is O(paths + chunk) however long the run — and the resulting stream
      is byte-identical to [write (Recorder.record ...)] at the same
      chunk size.  A live [events] sink gets one [record_chunk] per
      flushed chunk (cumulative instances/paths/bytes) and a final
      [record_done]; the trace bytes are unaffected. *)

  (** {1 Reading}

      One frame parser reads every HOTPATH3 stream.  A {!reader} is a
      byte window plus one state machine: magic, then each frame's
      header, bounds and CRC-32, then its kind.  Only the way the window
      gets its bytes differs between the three feeds:

      - {e pull} ({!open_file}, {!of_recorder}): refilled from a channel,
        so a regular file, a pipe or a FIFO all work, holding one frame
        (plus one read-ahead) at a time;
      - {e mapped} ({!Mapped.map_file}, {!Mapped.of_bigstring},
        {!Mapped.of_string}): the window is the whole buffer, and instance
        frames decode straight out of it without a copy;
      - {e push} ({!Decoder}): the caller appends bytes as they arrive
        and learns when a frame is still incomplete.

      Instance frames decode into a caller's {!Batch.t}, the only decoded
      form.  Every feed accepts and rejects exactly the same streams with
      exactly the same messages; the fuzz suite runs each mutant through
      all three.  After an [Error] a reader is poisoned and repeats the
      same error. *)

  type reader

  val open_file : path:string -> (reader, string) result
  (** Pull reader over a file, validating the magic and the program
      frame.  Any readable path works, pipes and FIFOs included. *)

  val of_recorder : ?chunk_instances:int -> Recorder.t -> reader
  (** Pull reader over an in-memory recording (serialized through the
      full format), mainly for differential tests and benchmarks. *)

  val next_batch : reader -> Batch.t -> (bool, string) result
  (** Decode frames up to and including the next instance frame into
      [batch].  Paths frames are consumed on the way, growing {!table}.
      [Ok true]: the batch holds the frame's instances, valid until the
      next fill.  [Ok false]: the end frame was validated (totals
      cross-checked, no trailing bytes), {!vm_stats} is now [Some], and
      every later call returns [Ok false] again.
      @raise Invalid_argument on a push decoder that has no complete
      frame buffered (drive decoders with {!Decoder.next_batch}). *)

  val program : reader -> Cfg.program
  (** @raise Invalid_argument on a push decoder that has not decoded its
      program frame yet. *)

  val table : reader -> Path_table.t
  (** The path table as declared so far; grows as batches are pulled.
      Every id in a returned batch is already present. *)

  val instances_read : reader -> int
  (** Cumulative instances across the batches returned so far. *)

  val vm_stats : reader -> Hotpath_vm.Vm.run_stats option
  (** [Some] once the end frame has been validated. *)

  val close : reader -> unit
  (** End the input: release a pull reader's channel, or tell a push
      decoder that no more bytes will be fed, so that a stream that stops
      short fails with the same truncation error as on the other feeds.
      Idempotent. *)

  val to_recorder : reader -> (Recorder.t, string) result
  (** Drain the stream into a materialized {!Recorder.t} (validated via
      {!Recorder.of_parts}) and close the reader. *)

  (** {1 Push feed}

      A network daemon gets bytes pushed at it in arbitrary slices.  A
      decoder is a {!reader} whose window grows by {!Decoder.feed};
      feeding is O(bytes) amortized at any slice size, one byte at a
      time included. *)
  module Decoder : sig
    type t = reader

    type batch_step =
      | B_need_more  (** A complete next frame has not arrived yet. *)
      | B_program of Cfg.program
          (** The magic and program frame decoded and validated. *)
      | B_batch  (** One instances frame, decoded into the batch. *)
      | B_end of Hotpath_vm.Vm.run_stats
          (** The end frame validated (totals cross-checked); returned
              again by subsequent calls. *)

    val create : unit -> t

    val feed : t -> string -> pos:int -> len:int -> unit
    (** Append [len] bytes of [s] starting at [pos] to the window.
        Ignored once the decoder has errored or been {!close}d.
        @raise Invalid_argument if [pos]/[len] do not describe a
        substring, or on a reader that is not a push decoder. *)

    val next_batch : t -> Batch.t -> (batch_step, string) result
    (** Decode as far as the buffered bytes allow, filling [batch] on
        [B_batch].  Call repeatedly until [Ok B_need_more] (or terminally
        [B_end]/[Error]).  Bytes that arrive after the end frame surface
        as a trailing-garbage error on the call after they are fed. *)

    val buffered : t -> int
    (** Bytes fed but not yet consumed by a decoded frame. *)
  end

  (** {1 Mapped feed}

      A mapped reader validates each frame's bounds and CRC-32 against
      the buffer directly and decodes instance frames out of it into a
      reusable {!Batch.t}: no per-frame copy or allocation, and the
      kernel pages the file in behind the sequential scan.  Only the
      cold program, paths and end payloads are copied for their parsers.
      A consumer still holds one decoded frame of state at a time, so
      replay keeps peak heap at O(paths + frame) although the mapping is
      as large as the file. *)
  module Mapped : sig
    type bigstring = Hotpath_util.Crc32.bigstring

    type t = reader

    val map_file : path:string -> (t, string) result
    (** Map a HOTPATH3 file read-only and validate its magic and program
        frame.  Non-regular files (pipes, sockets, directories) return
        [Error]; read those with {!open_file}.  The mapping is released
        when the reader is garbage-collected. *)

    val of_bigstring : bigstring -> (t, string) result
    (** Wrap a buffer without copying it.  The caller must not mutate
        the buffer while the reader is live. *)

    val of_string : string -> (t, string) result
    (** Copy [s] into a fresh bigstring and wrap it. *)

    val next_batch : t -> Batch.t -> (bool, string) result
    (** {!Stream.next_batch}, under the name mapped callers use. *)

    val instances_read : t -> int
    (** {!Stream.instances_read}. *)
  end
end
