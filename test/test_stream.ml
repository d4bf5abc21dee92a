(* HOTPATH3 streaming format: round trips, constant-memory contracts,
   the fuzz suite, and the on-disk regression corpus.

   One frame parser reads every stream, fed three ways: pull (refilled
   from a channel), push (bytes appended by [Decoder.feed]) and mapped
   (the whole buffer).  The fuzz suite is one table of feeds: every
   corpus member and every mutant runs through pull, push at three slice
   sizes and mapped, and all of them must reach the same verdict with
   the same error message.  The contract is strict for HOTPATH3: the
   per-frame CRC makes *every* byte-level corruption of a valid stream
   detectable, so each mutated blob must come back [Error _] — never
   [Ok], never an exception, never a hang.

   Test names that say "run_stream" mean streamed replay: a pull-fed
   reader through [Replay.run_mapped]. *)

module Recorder = Hotpath_trace.Recorder
module Serialize = Hotpath_trace.Serialize
module Stream = Hotpath_trace.Serialize.Stream
module Decoder = Stream.Decoder
module Mapped = Stream.Mapped
module Batch = Hotpath_trace.Batch
module Path_table = Hotpath_trace.Path_table
module Replay = Hotpath_prediction.Replay
module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Sweep = Hotpath_metrics.Sweep
module Hot_set = Hotpath_metrics.Hot_set
module Suite = Hotpath_workloads.Suite
module Prng = Hotpath_util.Prng

let record_fixture = Test_serialize.record_fixture

let check_same_recording = Test_serialize.check_same_recording

let fixture_program () =
  let program, behavior, _ = Fixtures.indirect_loop ~exit_prob:0.02 () in
  (program, behavior)

let drain rd =
  match Stream.to_recorder rd with
  | Ok r -> r
  | Error e -> Alcotest.failf "to_recorder on valid stream failed: %s" e

(* A pull reader over [s], through a temporary file.  The file is
   unlinked as soon as it is open; the descriptor keeps it readable. *)
let open_pull s =
  let path = Filename.temp_file "hotpath_stream" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let oc = open_out_bin path in
       output_string oc s;
       close_out oc;
       Stream.open_file ~path)

(* ------------------------------------------------------------------ *)
(* Round trips and boundaries                                          *)
(* ------------------------------------------------------------------ *)

let test_stream_roundtrip () =
  let r = record_fixture () in
  List.iter
    (fun chunk_instances ->
       check_same_recording r (drain (Stream.of_recorder ~chunk_instances r)))
    [ 1; 7; 256; Stream.default_chunk_instances ]

let test_chunk_boundaries () =
  (* Chunk sizes straddling the trace length: exactly one chunk, one
     short, one over. *)
  let r = record_fixture () in
  let n = Recorder.num_instances r in
  Alcotest.(check bool) "fixture is non-trivial" true (n > 2);
  List.iter
    (fun chunk_instances ->
       check_same_recording r (drain (Stream.of_recorder ~chunk_instances r)))
    [ n - 1; n; n + 1 ]

let test_empty_trace_roundtrip () =
  let program, behavior = fixture_program () in
  let empty =
    Recorder.record ~max_paths:0 program behavior ~rng:(Prng.create ~seed:7)
  in
  Alcotest.(check int) "empty trace" 0 (Recorder.num_instances empty);
  let r' = drain (Stream.of_recorder empty) in
  check_same_recording empty r'

let test_streamed_record_matches_materialized_bytes () =
  (* Recording straight to a sink must emit the same bytes as
     serializing the materialized recording at the same chunk size. *)
  let program, behavior = fixture_program () in
  let buf = Buffer.create 4096 in
  let summary =
    Stream.record ~max_steps:20_000 ~chunk_instances:128 program behavior
      ~rng:(Prng.create ~seed:7) ~sink:(Buffer.add_string buf)
  in
  let r =
    Recorder.record ~max_steps:20_000 program behavior
      ~rng:(Prng.create ~seed:7)
  in
  Alcotest.(check int) "summary instances" (Recorder.num_instances r)
    summary.Recorder.cs_instances;
  Alcotest.(check int) "summary paths" (Recorder.num_paths r)
    summary.Recorder.cs_paths;
  Alcotest.(check string) "byte-identical stream"
    (Stream.to_string ~chunk_instances:128 r)
    (Buffer.contents buf)

let test_record_chunked_invariant_under_chunk_size () =
  let program, behavior = fixture_program () in
  let at chunk_instances =
    let buf = Buffer.create 4096 in
    ignore
      (Stream.record ~max_steps:20_000 ~chunk_instances program behavior
         ~rng:(Prng.create ~seed:7) ~sink:(Buffer.add_string buf));
    match Serialize.of_string (Buffer.contents buf) with
    | Ok r -> r
    | Error e -> Alcotest.failf "chunked stream unreadable: %s" e
  in
  let reference = at 1 in
  List.iter
    (fun c -> check_same_recording reference (at c))
    [ 2; 63; 4096 ]

let test_file_roundtrip_and_load_dispatch () =
  let r = record_fixture () in
  let path = Filename.temp_file "hotpath_stream" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Stream.save ~chunk_instances:100 r ~path;
       (* Serialize.load is the pull feed drained into a recording. *)
       (match Serialize.load ~path with
        | Ok r' -> check_same_recording r r'
        | Error e -> Alcotest.failf "load of streamed file failed: %s" e);
       match Stream.open_file ~path with
       | Error e -> Alcotest.failf "open_file failed: %s" e
       | Ok rd -> check_same_recording r (drain rd))

let test_reader_accessors () =
  let r = record_fixture () in
  let rd = Stream.of_recorder ~chunk_instances:50 r in
  Alcotest.(check bool) "no stats before end" true (Stream.vm_stats rd = None);
  let b = Batch.create ~capacity:4 () in
  let rec pull () =
    match Stream.next_batch rd b with
    | Error e -> Alcotest.failf "next_batch failed: %s" e
    | Ok true ->
      let np = Path_table.size (Stream.table rd) in
      for j = 0 to Batch.length b - 1 do
        let id = b.Batch.ids.(j) in
        Alcotest.(check bool) "id already declared" true (id >= 0 && id < np)
      done;
      pull ()
    | Ok false -> ()
  in
  pull ();
  Alcotest.(check int) "instances_read" (Recorder.num_instances r)
    (Stream.instances_read rd);
  Alcotest.(check bool) "stats after end" true (Stream.vm_stats rd <> None);
  (match Stream.next_batch rd b with
   | Ok false -> ()
   | _ -> Alcotest.fail "next_batch after end must keep returning Ok false");
  Stream.close rd;
  Stream.close rd

(* ------------------------------------------------------------------ *)
(* Streamed replay differential                                        *)
(* ------------------------------------------------------------------ *)

let schemes : (string * (module Scheme.S)) list =
  [
    ("net", (module Net));
    ("net-once", (module Net.Net_once));
    ("let", (module Net.Last_executed_tail));
    ("path-profile", (module Path_profile));
  ]

let test_run_stream_matches_run () =
  let r = record_fixture () in
  List.iter
    (fun (name, scheme) ->
       List.iter
         (fun delay ->
            let materialized = Replay.run scheme ~delay r in
            match
              Replay.run_mapped scheme ~delay
                (Stream.of_recorder ~chunk_instances:33 r)
            with
            | Error e -> Alcotest.failf "%s: pull replay failed: %s" name e
            | Ok streamed ->
              Alcotest.(check bool)
                (Printf.sprintf "%s delay=%d identical" name delay)
                true
                (Test_properties.outcome_equal materialized streamed))
         [ 1; 7; 50; 100_000 ])
    schemes

let test_run_many_stream_matches_run_many () =
  let r = record_fixture () in
  let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
  List.iter
    (fun (name, scheme) ->
       let materialized = Replay.run_many scheme ~delays r in
       match
         Replay.run_many_mapped scheme ~delays
           (Stream.of_recorder ~chunk_instances:61 r)
       with
       | Error e -> Alcotest.failf "%s: pull replay failed: %s" name e
       | Ok streamed ->
         Alcotest.(check int) "one outcome per delay" (List.length delays)
           (List.length streamed);
         List.iter2
           (fun a b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s lane identical" name)
                true
                (Test_properties.outcome_equal a b))
           materialized streamed)
    schemes

let test_run_many_stream_single_pass () =
  let r = record_fixture () in
  let n = Recorder.num_instances r in
  let before = Replay.instance_reads () in
  (match
     Replay.run_many_mapped (module Net) ~delays:[ 1; 5; 25; 125 ]
       (Stream.of_recorder r)
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "pull replay failed: %s" e);
  Alcotest.(check int) "stream read once" n (Replay.instance_reads () - before)

let test_sweep_stream_matches_sweep () =
  let r = record_fixture () in
  let threshold = Suite.hot_threshold in
  let hot =
    Hot_set.compute
      ~freq:(Recorder.frequencies r)
      ~total_flow:(Recorder.num_instances r)
      ~threshold
  in
  let delays = [ 2; 10; 100; 1_000 ] in
  let materialized = Sweep.run (module Net) r ~hot ~delays in
  match
    Sweep.run_stream (module Net) (Stream.of_recorder r) ~threshold ~delays
  with
  | Error e -> Alcotest.failf "run_stream sweep failed: %s" e
  | Ok streamed ->
    Alcotest.(check bool) "sweep points identical" true (materialized = streamed)

let test_run_stream_surfaces_decode_errors () =
  (* A stream corrupted past the program frame fails inside the replay
     loop; the error must surface as Error, not an exception, and the
     reader must stay poisoned. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:40 r in
  let b = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  match open_pull (Bytes.to_string b) with
  | Error _ -> () (* corruption already hit the program frame: fine *)
  | Ok rd -> (
      match Replay.run_mapped (module Net) ~delay:7 rd with
      | Ok _ -> Alcotest.fail "corrupt stream replayed to Ok"
      | Error first -> (
          match Stream.next_batch rd (Batch.create ()) with
          | Error second ->
            Alcotest.(check string) "reader stays poisoned" first second
          | Ok _ -> Alcotest.fail "poisoned reader yielded a chunk"))

(* ------------------------------------------------------------------ *)
(* Pipes: the pull feed over a non-regular file                        *)
(* ------------------------------------------------------------------ *)

(* Run [read] on a fresh named pipe while a writer thread trickles
   [blob] into it in spaced 997-byte pieces.  The mapped feed must
   refuse the pipe first. *)
let through_fifo blob read =
  let path = Filename.temp_file "hotpath_fifo" ".trace" in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       (match Mapped.map_file ~path with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mapped a FIFO");
       (* A reader that fails early closes the pipe: the writer must see
          EPIPE and stop, not take the process down with SIGPIPE. *)
       Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
       let writer =
         Thread.create
           (fun () ->
              let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () ->
                   let off = ref 0 in
                   try
                     while !off < String.length blob do
                       let len = min 997 (String.length blob - !off) in
                       off := !off + Unix.write_substring fd blob !off len;
                       Thread.delay 0.002
                     done
                   with Unix.Unix_error (Unix.EPIPE, _, _) -> ()))
           ()
       in
       let result = read path in
       Thread.join writer;
       result)

let test_fifo_pull_replay () =
  (* [replay --stream] reads anything it cannot map through the pull
     feed, and [Serialize.load] always reads through it.  Against
     instance frames of 2.5 KB, the writer's 997-byte pieces make every
     frame span several short reads; the streamed replay must still
     equal the materialized one, and [load] must return the
     recording. *)
  let r = Suite.record ~scale:0.02 (Suite.find_exn "compress") in
  let blob = Stream.to_string ~chunk_instances:500 r in
  let replayed =
    through_fifo blob (fun path ->
        match Stream.open_file ~path with
        | Error e -> Error e
        | Ok rd ->
          let o = Replay.run_mapped (module Net) ~delay:7 rd in
          Stream.close rd;
          o)
  in
  (match replayed with
   | Error e -> Alcotest.failf "replay through a FIFO failed: %s" e
   | Ok streamed ->
     Alcotest.(check bool) "FIFO replay = run" true
       (Test_properties.outcome_equal
          (Replay.run (module Net) ~delay:7 r)
          streamed));
  match through_fifo blob (fun path -> Serialize.load ~path) with
  | Error e -> Alcotest.failf "load through a FIFO failed: %s" e
  | Ok loaded -> check_same_recording r loaded

(* ------------------------------------------------------------------ *)
(* The feed table                                                      *)
(* ------------------------------------------------------------------ *)

(* What a feed made of a whole input: the decoded ids and re-packed
   arrival bytes after a validated end frame, or the error it was
   poisoned with. *)
type verdict = (int array * string, string) result

let show_verdict = function
  | Ok (ids, _) -> Printf.sprintf "Ok (%d instances)" (Array.length ids)
  | Error e -> Printf.sprintf "Error %S" e

(* Accumulates every batch decoded, in order. *)
let collector () =
  let ids = ref [] and arrs = ref [] in
  let add (b : Batch.t) =
    let n = Batch.length b in
    ids := Array.sub b.Batch.ids 0 n :: !ids;
    arrs := String.init n (fun j -> Char.chr b.Batch.arrs.(j)) :: !arrs
  in
  let result () =
    (Array.concat (List.rev !ids), String.concat "" (List.rev !arrs))
  in
  (add, result)

(* A poisoned reader repeats its error verbatim. *)
let check_sticky what e = function
  | Error e' -> Alcotest.(check string) (what ^ ": error is sticky") e e'
  | Ok _ -> Alcotest.failf "%s: poisoned reader recovered" what

(* Drain an opened pull or mapped reader to its verdict. *)
let drain_reader (opened : (Stream.reader, string) result) : verdict =
  match opened with
  | Error e -> Error e
  | Ok rd ->
    let b = Batch.create ~capacity:16 () in
    let add, result = collector () in
    let rec loop () =
      match Stream.next_batch rd b with
      | Ok true ->
        add b;
        loop ()
      | Ok false -> Ok (result ())
      | Error e ->
        check_sticky "reader" e (Stream.next_batch rd b);
        Error e
    in
    let v = loop () in
    Stream.close rd;
    v

(* Push [s] into a fresh decoder [slice] bytes at a time, pumping after
   every slice, then close the input, so that a stream that stops short
   fails as the same truncation the bounded feeds report. *)
let push_through ~slice s =
  let d = Decoder.create () in
  let b = Batch.create ~capacity:16 () in
  let add, result = collector () in
  let rec pump () =
    match Decoder.next_batch d b with
    | Error _ as e -> e
    | Ok Decoder.B_need_more -> Ok false
    | Ok (Decoder.B_program _) -> pump ()
    | Ok Decoder.B_batch ->
      add b;
      pump ()
    | Ok (Decoder.B_end _) -> Ok true
  in
  let n = String.length s in
  let rec go off =
    if off >= n then begin
      Stream.close d;
      pump ()
    end
    else begin
      let len = min slice (n - off) in
      Decoder.feed d s ~pos:off ~len;
      match pump () with Error _ as e -> e | Ok _ -> go (off + len)
    end
  in
  let verdict =
    match go 0 with
    | Ok true -> Ok (result ())
    | Ok false -> Alcotest.fail "closed decoder still asks for more"
    | Error e ->
      (* Poisoned: further input is ignored. *)
      Decoder.feed d s ~pos:0 ~len:(min n 16);
      check_sticky "decoder" e (Decoder.next_batch d b);
      Error e
  in
  (d, verdict)

let drain_pushed ~slice s = snd (push_through ~slice s)

let feeds : (string * (string -> verdict)) list =
  [
    ("pull", fun s -> drain_reader (open_pull s));
    ("mapped", fun s -> drain_reader (Mapped.of_string s));
    ("push/1", drain_pushed ~slice:1);
    ("push/7", drain_pushed ~slice:7);
    ("push/4096", drain_pushed ~slice:4096);
  ]

(* Run [s] through every feed; all must reach the same verdict, message
   included.  Returns that verdict. *)
let same_verdict ?(feeds = feeds) name s =
  match List.map (fun (feed, run) -> (feed, run s)) feeds with
  | [] -> invalid_arg "same_verdict: no feeds"
  | (ref_feed, reference) :: rest ->
    List.iter
      (fun (feed, v) ->
         if v <> reference then
           Alcotest.failf "%s: %s gives %s but %s gives %s" name feed
             (show_verdict v) ref_feed (show_verdict reference))
      rest;
    reference

let expect_error name s =
  match same_verdict name s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: corrupt input accepted" name

(* ------------------------------------------------------------------ *)
(* Fuzz suite                                                          *)
(* ------------------------------------------------------------------ *)

let flip_bit s ~pos ~bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

let test_fuzz_h3_bitflips () =
  (* 400 random single-bit flips over a valid HOTPATH3 blob: the CRC
     guarantees every one is detected. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:64 r in
  let rng = Prng.create ~seed:0xF1255 in
  for case = 1 to 400 do
    let pos = Prng.int rng ~bound:(String.length s) in
    let bit = Prng.int rng ~bound:8 in
    expect_error
      (Printf.sprintf "h3 bitflip %d (pos=%d bit=%d)" case pos bit)
      (flip_bit s ~pos ~bit)
  done

let test_fuzz_h3_truncations () =
  (* Every strict prefix is a torn write; 120 spread across the blob. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:64 r in
  let n = String.length s in
  for i = 0 to 119 do
    let keep = i * (n - 1) / 119 in
    expect_error (Printf.sprintf "h3 truncated to %d" keep) (String.sub s 0 keep)
  done

let frame_offsets s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le s (off + 1)) in
      go (off + 5 + len + 4) ((off, len) :: acc)
  in
  go (String.length Stream.magic) []

let test_fuzz_h3_length_fields () =
  (* Every frame's payload-length field, mutated five ways.  Plausible
     lengths are caught by the CRC (the header is covered), implausible
     ones by the bound check before any allocation. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:4 r in
  let offsets = frame_offsets s in
  (* program + >=1 paths + >=2 instances + end *)
  Alcotest.(check bool) "multi-frame stream" true (List.length offsets >= 5);
  List.iter
    (fun (off, len) ->
       List.iter
         (fun v ->
            if v <> len then begin
              let b = Bytes.of_string s in
              Bytes.set_int32_le b (off + 1) (Int32.of_int v);
              expect_error
                (Printf.sprintf "h3 frame@%d len %d->%d" off len v)
                (Bytes.to_string b)
            end)
         [ -1; 0; len - 1; len + 1; Stream.max_frame_payload + 1 ])
    offsets

let test_fuzz_h3_trailing_garbage () =
  let r = record_fixture () in
  let s = Stream.to_string r in
  expect_error "h3 trailing garbage" (s ^ "x");
  expect_error "h3 trailing frame"
    (s ^ String.sub s (String.length Stream.magic) 32)

(* ------------------------------------------------------------------ *)
(* Regression corpus                                                   *)
(* ------------------------------------------------------------------ *)

let corpus_files () =
  match Sys.readdir "fixtures" with
  | exception Sys_error e -> Alcotest.failf "corpus missing: %s" e
  | files ->
    (* fixtures/ also holds the golden/ directory; the corpus is the
       .trace files only. *)
    let files =
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".trace")
      |> List.sort String.compare
    in
    Alcotest.(check bool) "corpus populated" true (List.length files >= 9);
    files

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corpus () =
  (* Every member through every feed, then the whole-recording entry
     points: [valid_*] must load, [corrupt_*] and [legacy_*] must not. *)
  List.iter
    (fun name ->
       let path = Filename.concat "fixtures" name in
       let contents = read_file path in
       ignore (same_verdict name contents : verdict);
       let from_string = Serialize.of_string contents in
       let from_file = Serialize.load ~path in
       if String.length name >= 6 && String.sub name 0 6 = "valid_" then begin
         (match from_string with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: of_string rejected: %s" name e);
         match from_file with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "%s: load rejected: %s" name e
       end
       else begin
         (match from_string with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s: of_string accepted corrupt input" name);
         match from_file with
         | Error _ -> ()
         | Ok _ -> Alcotest.failf "%s: load accepted corrupt input" name
       end)
    (corpus_files ())

(* ------------------------------------------------------------------ *)
(* Frame-flood robustness.  Empty k_paths frames are legal (a chunk
   flush that declared no new paths), so an adversarial or degenerate
   writer can emit millions of them.  The frame loop once recursed per
   skipped frame *inside* its try block — a non-tail call — so a flood
   overflowed the stack with an uncaught exception; now every feed must
   decode it in bounded time and memory to the same recording.  The
   push feed gets the whole flood in one slice, so a single
   [next_batch] walks all of it.                                       *)
(* ------------------------------------------------------------------ *)

let raw_frame ~kind payload =
  let module Crc32 = Hotpath_util.Crc32 in
  let len = String.length payload in
  let hdr = Bytes.create 5 in
  Bytes.set_uint8 hdr 0 kind;
  Bytes.set_int32_le hdr 1 (Int32.of_int len);
  let crc = Crc32.update_bytes Crc32.empty hdr ~pos:0 ~len:5 in
  let crc = Crc32.update_string crc payload ~pos:0 ~len in
  let tl = Bytes.create 4 in
  Bytes.set_int32_le tl 0 crc;
  Bytes.to_string hdr ^ payload ^ Bytes.to_string tl

(* Splice [extra] into a valid stream just after its program frame (the
   first frame following the magic). *)
let splice_after_program blob extra =
  let m = String.length Stream.magic in
  let payload_len =
    Int32.to_int (String.get_int32_le blob (m + 1))
  in
  let cut = m + 5 + payload_len + 4 in
  String.sub blob 0 cut ^ extra ^ String.sub blob cut (String.length blob - cut)

let flood_frames n =
  (* A k_paths payload is a 4-byte path count followed by that many
     paths; count = 0 is the legal "no new paths" frame. *)
  let frame = raw_frame ~kind:1 (* k_paths *) "\x00\x00\x00\x00" in
  let buf = Buffer.create (n * String.length frame) in
  for _ = 1 to n do
    Buffer.add_string buf frame
  done;
  Buffer.contents buf

let flood_feeds =
  [
    ("pull", List.assoc "pull" feeds);
    ("mapped", List.assoc "mapped" feeds);
    ("push/all", fun s -> drain_pushed ~slice:(max 1 (String.length s)) s);
  ]

let test_empty_paths_frame_flood () =
  let r = record_fixture () in
  let blob = Stream.to_string r in
  let flooded = splice_after_program blob (flood_frames 2_000_000) in
  match same_verdict ~feeds:flood_feeds "2M-frame flood" flooded with
  | Error e -> Alcotest.failf "flooded stream rejected: %s" e
  | Ok (ids, arrs) ->
    Alcotest.(check (array int)) "ids" r.Recorder.instances ids;
    Alcotest.(check string) "arrivals" (Bytes.to_string r.Recorder.arrivals) arrs

let test_flood_then_truncation_rejected () =
  (* A flood that ends in a torn frame must surface as Error, not an
     exception: the skip loop cannot outrun the truncation check. *)
  let r = record_fixture () in
  let blob = Stream.to_string r in
  let m = String.length Stream.magic in
  let payload_len = Int32.to_int (String.get_int32_le blob (m + 1)) in
  let prefix = String.sub blob 0 (m + 5 + payload_len + 4) in
  let truncated = prefix ^ flood_frames 100_000 ^ "\x01\x00" in
  match same_verdict ~feeds:flood_feeds "torn flood" truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated flood decoded to Ok"

let test_corpus_valid_members_agree () =
  (* The valid members load, and the writer re-encodes what was loaded
     to the committed bytes: decode and encode agree on the corpus. *)
  let path name = Filename.concat "fixtures" name in
  let load name =
    match Serialize.load ~path:(path name) with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  Alcotest.(check string) "valid_hotpath3.trace re-encodes to its bytes"
    (read_file (path "valid_hotpath3.trace"))
    (Stream.to_string ~chunk_instances:256 (load "valid_hotpath3.trace"));
  let empty = load "valid_hotpath3_empty.trace" in
  Alcotest.(check int) "empty corpus member" 0 (Recorder.num_instances empty)

let legacy_refusal =
  "HOTPATH2 trace: this format is no longer read; re-record it with \
   `hotpath record`"

let test_legacy_file_refused () =
  (* The retired single-blob format is refused with one error through
     every entry point: the whole-recording loaders, and the pull,
     mapped and push feeds. *)
  let path = Filename.concat "fixtures" "legacy_hotpath2.trace" in
  let contents = read_file path in
  let refused what = function
    | Error e -> Alcotest.(check string) what legacy_refusal e
    | Ok _ -> Alcotest.failf "%s accepted a HOTPATH2 file" what
  in
  refused "load" (Serialize.load ~path);
  refused "of_string" (Serialize.of_string contents);
  refused "open_file" (Stream.open_file ~path);
  refused "map_file" (Mapped.map_file ~path);
  List.iter
    (fun slice ->
       refused
         (Printf.sprintf "push/%d" slice)
         (drain_pushed ~slice contents))
    [ 1; 7; 4096 ]

(* ------------------------------------------------------------------ *)
(* Push feed                                                           *)
(* ------------------------------------------------------------------ *)

let test_decoder_matches_reader () =
  let r = record_fixture () in
  let blob = Stream.to_string ~chunk_instances:256 r in
  let pulled = drain_reader (Ok (Stream.of_recorder ~chunk_instances:256 r)) in
  (match pulled with
   | Error e -> Alcotest.failf "pull reader errored: %s" e
   | Ok (ids, arrs) ->
     Alcotest.(check (array int)) "ids match recorder" r.Recorder.instances ids;
     Alcotest.(check string) "arrivals match recorder"
       (Bytes.to_string r.Recorder.arrivals)
       arrs);
  List.iter
    (fun slice ->
       let d, pushed = push_through ~slice blob in
       Alcotest.(check bool)
         (Printf.sprintf "push (slice=%d) = pull" slice)
         true (pushed = pulled);
       Alcotest.(check bool) "finished" true (Stream.vm_stats d <> None);
       Alcotest.(check int) "instances_read"
         (Array.length r.Recorder.instances)
         (Stream.instances_read d);
       Alcotest.(check int) "table size" (Recorder.num_paths r)
         (Path_table.size (Stream.table d));
       Alcotest.(check int) "buffer drained" 0 (Decoder.buffered d))
    [ 1; 7; 4096 ]

let test_decoder_bitflip_fuzz () =
  (* The push feed on its own, at an odd slice size and with its own
     seed: every byte-level corruption of a valid HOTPATH3 blob is
     covered by a frame CRC, so no mutant may decode to a finished
     stream.  A torn length field only looks like "more bytes coming"
     until the input is closed, and then fails as a truncation.  The
     error is sticky ([push_through] checks it). *)
  let r = record_fixture () in
  let blob = Stream.to_string ~chunk_instances:256 r in
  let rng = Prng.create ~seed:0xDEC0DE in
  for _ = 1 to 200 do
    let pos = Prng.int rng ~bound:(String.length blob) in
    let bit = Prng.int rng ~bound:8 in
    match drain_pushed ~slice:509 (flip_bit blob ~pos ~bit) with
    | Error _ -> ()
    | Ok _ ->
      Alcotest.failf "bitflip at byte %d bit %d decoded to a finished stream"
        pos bit
  done

let test_decoder_trailing_garbage () =
  let r = record_fixture () in
  let blob = Stream.to_string r in
  match drain_pushed ~slice:1021 (blob ^ "zz") with
  | Ok _ -> Alcotest.fail "trailing garbage not surfaced"
  | Error e ->
    Alcotest.(check string) "message" "trailing garbage after end frame" e

let test_decoder_end_repeats () =
  let r = record_fixture () in
  let blob = Stream.to_string r in
  let d, verdict = push_through ~slice:4096 blob in
  Alcotest.(check bool) "no error" true (Result.is_ok verdict);
  let b = Batch.create () in
  match (Decoder.next_batch d b, Decoder.next_batch d b) with
  | Ok (Decoder.B_end _), Ok (Decoder.B_end _) -> ()
  | _ -> Alcotest.fail "End is not repeated after completion"

let test_decoder_feed_validation () =
  let d = Decoder.create () in
  Alcotest.check_raises "bad substring"
    (Invalid_argument "Serialize.Stream.Decoder.feed: bad substring")
    (fun () -> Decoder.feed d "abc" ~pos:2 ~len:5);
  Alcotest.check_raises "pull reader"
    (Invalid_argument "Serialize.Stream.Decoder.feed: not a push decoder")
    (fun () ->
       Decoder.feed (Stream.of_recorder (record_fixture ())) "abc" ~pos:0 ~len:3)

(* ------------------------------------------------------------------ *)
(* Mapped feed                                                         *)
(* ------------------------------------------------------------------ *)

let test_mapped_matches_recorder () =
  let r = record_fixture () in
  List.iter
    (fun chunk_instances ->
       let blob = Stream.to_string ~chunk_instances r in
       match Mapped.of_string blob with
       | Error e -> Alcotest.failf "of_string on valid stream: %s" e
       | Ok m ->
         (match drain_reader (Ok m) with
          | Error e -> Alcotest.failf "drain (chunk=%d): %s" chunk_instances e
          | Ok (ids, arrs) ->
            Alcotest.(check (array int)) "ids match recorder"
              r.Recorder.instances ids;
            Alcotest.(check string) "arrivals match recorder"
              (Bytes.to_string r.Recorder.arrivals)
              arrs);
         Alcotest.(check int) "instances_read" (Recorder.num_instances r)
           (Mapped.instances_read m);
         Alcotest.(check int) "table size" (Recorder.num_paths r)
           (Path_table.size (Stream.table m));
         Alcotest.(check bool) "stats after end" true (Stream.vm_stats m <> None);
         (* The end state is sticky. *)
         (match Mapped.next_batch m (Batch.create ()) with
          | Ok false -> ()
          | _ -> Alcotest.fail "next_batch after end must keep returning Ok false"))
    [ 1; 7; 256; Stream.default_chunk_instances ]

let test_mapped_file_and_fallback () =
  let r = record_fixture () in
  let path = Filename.temp_file "hotpath_mapped" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Stream.save ~chunk_instances:100 r ~path;
       (match drain_reader (Mapped.map_file ~path) with
        | Error e -> Alcotest.failf "map_file failed: %s" e
        | Ok (ids, arrs) ->
          Alcotest.(check (array int)) "ids via mmap" r.Recorder.instances ids;
          Alcotest.(check string) "arrivals via mmap"
            (Bytes.to_string r.Recorder.arrivals)
            arrs);
       (* Non-regular files must bounce to the pull reader, not crash:
          a directory and a character device both refuse to map. *)
       (match Mapped.map_file ~path:(Filename.get_temp_dir_name ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mapped a directory");
       (match Mapped.map_file ~path:"/dev/null" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mapped a character device");
       (match Mapped.map_file ~path:(path ^ ".does-not-exist") with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mapped a missing file"))

let test_mapped_corpus_agrees_with_pull_reader () =
  (* On the files themselves: a real mapping and a pull reader over the
     same corpus member reach the same verdict, message included. *)
  List.iter
    (fun name ->
       let path = Filename.concat "fixtures" name in
       ignore
         (same_verdict
            ~feeds:
              [
                ("open_file", fun path -> drain_reader (Stream.open_file ~path));
                ("map_file", fun path -> drain_reader (Mapped.map_file ~path));
              ]
            name path
           : verdict))
    (corpus_files ())

let test_mapped_bitflip_fuzz () =
  (* The mapped feed on its own, with its own seed: 400 random
     single-bit flips, none of which may drain to a clean end.  Errors
     are sticky ([drain_reader] checks it). *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:64 r in
  let rng = Prng.create ~seed:0x3A99ED in
  for case = 1 to 400 do
    let pos = Prng.int rng ~bound:(String.length s) in
    let bit = Prng.int rng ~bound:8 in
    match drain_reader (Mapped.of_string (flip_bit s ~pos ~bit)) with
    | Error _ -> ()
    | Ok _ ->
      Alcotest.failf "mapped bitflip %d (pos=%d bit=%d) drained clean" case pos
        bit
  done

let test_mapped_truncation_fuzz () =
  (* 120 prefixes: every torn write is an error, never a crash or a
     clean end. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:64 r in
  let n = String.length s in
  for i = 0 to 119 do
    let keep = i * (n - 1) / 119 in
    match drain_reader (Mapped.of_string (String.sub s 0 keep)) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d drained clean" keep
  done

let test_run_mapped_matches_run () =
  let r = record_fixture () in
  let mapped ?(chunk_instances = 33) () =
    match Mapped.of_string (Stream.to_string ~chunk_instances r) with
    | Ok m -> m
    | Error e -> Alcotest.failf "of_string on valid stream: %s" e
  in
  List.iter
    (fun (name, scheme) ->
       List.iter
         (fun delay ->
            let materialized = Replay.run scheme ~delay r in
            match Replay.run_mapped scheme ~delay (mapped ()) with
            | Error e -> Alcotest.failf "%s: run_mapped failed: %s" name e
            | Ok m ->
              Alcotest.(check bool)
                (Printf.sprintf "%s delay=%d identical" name delay)
                true
                (Test_properties.outcome_equal materialized m))
         [ 1; 7; 50; 100_000 ])
    schemes

let test_run_many_mapped_matches_run_many () =
  let r = record_fixture () in
  let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
  let mapped ~chunk_instances () =
    match Mapped.of_string (Stream.to_string ~chunk_instances r) with
    | Ok m -> m
    | Error e -> Alcotest.failf "of_string on valid stream: %s" e
  in
  List.iter
    (fun (name, scheme) ->
       let materialized = Replay.run_many scheme ~delays r in
       match
         Replay.run_many_mapped scheme ~delays (mapped ~chunk_instances:61 ())
       with
       | Error e -> Alcotest.failf "%s: run_many_mapped failed: %s" name e
       | Ok ms ->
         Alcotest.(check int) "one outcome per delay" (List.length delays)
           (List.length ms);
         List.iter2
           (fun a b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s lane identical" name)
                true
                (Test_properties.outcome_equal a b))
           materialized ms)
    schemes

let test_run_many_mapped_events_identical () =
  (* One event stream, three readers: materialized, pull-fed, and
     mapped replay must emit byte-identical samples. *)
  let r = record_fixture () in
  let delays = [ 1; 3; 7; 20; 100 ] in
  let via_run_many () =
    let buf = Buffer.create 4096 in
    let ev = Replay.events ~window:97 (Hotpath_util.Events.of_buffer buf) in
    ignore (Replay.run_many ~events:ev (module Net) ~delays r);
    Buffer.contents buf
  in
  let via_stream () =
    let buf = Buffer.create 4096 in
    let ev = Replay.events ~window:97 (Hotpath_util.Events.of_buffer buf) in
    (match
       Replay.run_many_mapped ~events:ev (module Net) ~delays
         (Stream.of_recorder ~chunk_instances:61 r)
     with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "pull replay: %s" e);
    Buffer.contents buf
  in
  let via_mapped () =
    let buf = Buffer.create 4096 in
    let ev = Replay.events ~window:97 (Hotpath_util.Events.of_buffer buf) in
    (match Mapped.of_string (Stream.to_string ~chunk_instances:61 r) with
     | Error e -> Alcotest.failf "of_string: %s" e
     | Ok m -> (
         match Replay.run_many_mapped ~events:ev (module Net) ~delays m with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "run_many_mapped: %s" e));
    Buffer.contents buf
  in
  let reference = via_run_many () in
  Alcotest.(check bool) "events non-empty" true (String.length reference > 0);
  Alcotest.(check string) "stream events identical" reference (via_stream ());
  Alcotest.(check string) "mapped events identical" reference (via_mapped ())

let test_run_mapped_surfaces_decode_errors () =
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:40 r in
  let b = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  match Mapped.of_string (Bytes.to_string b) with
  | Error _ -> () (* corruption already hit the program frame: fine *)
  | Ok m -> (
      match Replay.run_mapped (module Net) ~delay:7 m with
      | Ok _ -> Alcotest.fail "corrupt mapped stream replayed to Ok"
      | Error first -> (
          match Mapped.next_batch m (Batch.create ()) with
          | Error second ->
            Alcotest.(check string) "mapped reader stays poisoned" first second
          | Ok _ -> Alcotest.fail "poisoned mapped reader yielded a batch"))

let suites =
  [
    ( "trace.stream",
      [
        Alcotest.test_case "roundtrip at several chunk sizes" `Quick
          test_stream_roundtrip;
        Alcotest.test_case "chunk boundary sizes" `Quick test_chunk_boundaries;
        Alcotest.test_case "empty trace roundtrip" `Quick
          test_empty_trace_roundtrip;
        Alcotest.test_case "streamed record = materialized bytes" `Quick
          test_streamed_record_matches_materialized_bytes;
        Alcotest.test_case "record_chunked invariant in chunk size" `Quick
          test_record_chunked_invariant_under_chunk_size;
        Alcotest.test_case "file roundtrip + load dispatch" `Quick
          test_file_roundtrip_and_load_dispatch;
        Alcotest.test_case "HOTPATH2 file refused with a typed error" `Quick
          test_legacy_file_refused;
        Alcotest.test_case "reader accessors" `Quick test_reader_accessors;
        Alcotest.test_case "run_stream = run (all schemes)" `Quick
          test_run_stream_matches_run;
        Alcotest.test_case "run_many_stream = run_many (all schemes)" `Quick
          test_run_many_stream_matches_run_many;
        Alcotest.test_case "run_many_stream reads stream once" `Quick
          test_run_many_stream_single_pass;
        Alcotest.test_case "sweep over stream = materialized sweep" `Quick
          test_sweep_stream_matches_sweep;
        Alcotest.test_case "replay surfaces decode errors" `Quick
          test_run_stream_surfaces_decode_errors;
        Alcotest.test_case "FIFO pull replay = run (short reads)" `Quick
          test_fifo_pull_replay;
      ] );
    ( "trace.stream.fuzz",
      [
        Alcotest.test_case "400 h3 bitflips all rejected" `Quick
          test_fuzz_h3_bitflips;
        Alcotest.test_case "120 h3 truncations all rejected" `Quick
          test_fuzz_h3_truncations;
        Alcotest.test_case "h3 length-field mutations all rejected" `Quick
          test_fuzz_h3_length_fields;
        Alcotest.test_case "h3 trailing garbage rejected" `Quick
          test_fuzz_h3_trailing_garbage;
        Alcotest.test_case "2M empty-paths-frame flood decodes" `Quick
          test_empty_paths_frame_flood;
        Alcotest.test_case "frame flood + torn frame rejected" `Quick
          test_flood_then_truncation_rejected;
        Alcotest.test_case "regression corpus" `Quick test_corpus;
        Alcotest.test_case "corpus valid members agree" `Quick
          test_corpus_valid_members_agree;
      ] );
    ( "trace.stream.decoder",
      [
        Alcotest.test_case "push decoder = pull reader (feed 1/7/4096)" `Quick
          test_decoder_matches_reader;
        Alcotest.test_case "200 bitflips never finish clean" `Quick
          test_decoder_bitflip_fuzz;
        Alcotest.test_case "trailing garbage surfaced" `Quick
          test_decoder_trailing_garbage;
        Alcotest.test_case "End repeats after completion" `Quick
          test_decoder_end_repeats;
        Alcotest.test_case "feed validates substring" `Quick
          test_decoder_feed_validation;
      ] );
    ( "trace.stream.mapped",
      [
        Alcotest.test_case "mapped reader = recorder (chunk 1/7/256/default)"
          `Quick test_mapped_matches_recorder;
        Alcotest.test_case "map_file roundtrip + non-regular files refused"
          `Quick test_mapped_file_and_fallback;
        Alcotest.test_case "corpus verdicts agree with pull reader" `Quick
          test_mapped_corpus_agrees_with_pull_reader;
        Alcotest.test_case "400 bitflips never drain clean" `Quick
          test_mapped_bitflip_fuzz;
        Alcotest.test_case "120 truncations never drain clean" `Quick
          test_mapped_truncation_fuzz;
        Alcotest.test_case "run_mapped = run (all schemes)" `Quick
          test_run_mapped_matches_run;
        Alcotest.test_case "run_many_mapped = run_many" `Quick
          test_run_many_mapped_matches_run_many;
        Alcotest.test_case "event streams byte-identical across drivers" `Quick
          test_run_many_mapped_events_identical;
        Alcotest.test_case "replay surfaces mapped decode errors" `Quick
          test_run_mapped_surfaces_decode_errors;
      ] );
  ]
