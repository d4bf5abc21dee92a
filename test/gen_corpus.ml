(* Regenerates the serializer regression corpus under test/fixtures.

   Run from test/:  dune exec test/gen_corpus.exe -- [output-dir]

   Naming convention (enforced by test_stream.ml): files named
   [valid_*] must parse to [Ok _] through both [Serialize.of_string] and
   [Serialize.load]; files named [corrupt_*] must return [Error _] —
   never raise, never hang.  The corpus pins corruptions that were once
   mishandled so they stay fixed.  Files named [legacy_*] hold retired
   formats: every entry point must refuse them with the error that says
   to record the trace again.  They are kept byte-for-byte as they were
   written and are not regenerated here, since their writers are gone. *)

module Recorder = Hotpath_trace.Recorder
module Serialize = Hotpath_trace.Serialize
module Path_table = Hotpath_trace.Path_table
module Suite = Hotpath_workloads.Suite
module Generator = Hotpath_workloads.Generator
module Prng = Hotpath_util.Prng

let out_dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fixtures"

let write_file name contents =
  let path = Filename.concat out_dir name in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)

let patch s ~pos f =
  let b = Bytes.of_string s in
  f b pos;
  Bytes.to_string b

(* Frame offsets of an HOTPATH3 blob: (offset, kind, total length)
   triples, in stream order, starting just past the magic. *)
let frames s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      let kind = Char.code s.[off] in
      let len = Int32.to_int (String.get_int32_le s (off + 1)) in
      let total = 5 + len + 4 in
      go (off + total) ((off, kind, total) :: acc)
  in
  go (String.length Serialize.Stream.magic) []

let () =
  (if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755);
  let r = Suite.record ~scale:0.001 (Suite.find_exn "deltablue") in
  let n = Recorder.num_instances r in
  Printf.printf "corpus recording: %d instances, %d paths\n" n
    (Recorder.num_paths r);

  (* Valid members, plus the empty-trace boundary. *)
  let h3 = Serialize.Stream.to_string ~chunk_instances:256 r in
  write_file "valid_hotpath3.trace" h3;
  let empty = Buffer.create 256 in
  let b = Suite.find_exn "deltablue" in
  let program, behavior = Generator.build b.Suite.b_spec ~seed:b.Suite.b_seed in
  ignore
    (Serialize.Stream.record ~max_paths:0 program behavior
       ~rng:(Prng.create ~seed:1) ~sink:(Buffer.add_string empty));
  write_file "valid_hotpath3_empty.trace" (Buffer.contents empty);

  (* HOTPATH3 corruptions. *)
  let fs = frames h3 in
  let instance_frame =
    match List.find_opt (fun (_, kind, _) -> kind = 2) fs with
    | Some f -> f
    | None -> failwith "corpus recording produced no instance frame"
  in
  let off, _, total = instance_frame in
  (* A payload byte flipped mid-frame: only the CRC can catch it. *)
  write_file "corrupt_h3_payload_bitflip.trace"
    (patch h3 ~pos:(off + 5 + ((total - 9) / 2)) (fun b pos ->
         Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10))));
  (* The frame length field patched past max_frame_payload: must be
     rejected before any allocation. *)
  write_file "corrupt_h3_len_huge.trace"
    (patch h3 ~pos:(off + 1) (fun b pos ->
         Bytes.set_int32_le b pos 0x7FFFFFFFl));
  (* Torn writes. *)
  write_file "corrupt_h3_truncated.trace"
    (String.sub h3 0 (String.length h3 - 10));
  let last_off, last_kind, last_total =
    List.nth fs (List.length fs - 1)
  in
  assert (last_kind = 3 && last_off + last_total = String.length h3);
  write_file "corrupt_h3_missing_end.trace" (String.sub h3 0 last_off);
  (* A dropped interior chunk: every frame still checksums, but the end
     frame's totals no longer match what the stream carried. *)
  write_file "corrupt_h3_dropped_chunk.trace"
    (String.sub h3 0 off
     ^ String.sub h3 (off + total) (String.length h3 - off - total));
  (* An instance referencing a path the stream never declared.  The
     writer does not re-validate ids, so the corrupt stream can be
     produced through the public API. *)
  let bad = Buffer.create 1024 in
  let w =
    Serialize.Stream.writer (Buffer.add_string bad) ~program:r.Recorder.program
  in
  Serialize.Stream.write_chunk w ~table:r.Recorder.table
    ~ids:[| Path_table.size r.Recorder.table |]
    ~arrivals:(Bytes.make 1 '\000');
  Serialize.Stream.finish w ~table:r.Recorder.table
    ~vm_stats:r.Recorder.vm_stats;
  write_file "corrupt_h3_undeclared_path_id.trace" (Buffer.contents bad)
