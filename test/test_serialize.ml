(* Tests for the versioned binary trace format: whole recordings through
   [Stream.to_string]/[Stream.save] and back through [Serialize.of_string]/
   [Serialize.load], exercising the field codecs every frame shares. *)

module Cfg = Hotpath_cfg.Cfg
module Recorder = Hotpath_trace.Recorder
module Serialize = Hotpath_trace.Serialize
module Path_table = Hotpath_trace.Path_table
module Path = Hotpath_trace.Path
module Signature = Hotpath_trace.Signature
module Vm = Hotpath_vm.Vm
module Replay = Hotpath_prediction.Replay
module Net = Hotpath_prediction.Net
module Prng = Hotpath_util.Prng

let record_fixture ?(seed = 7) () =
  let program, behavior, _ = Fixtures.indirect_loop ~exit_prob:0.02 () in
  Recorder.record ~max_steps:20_000 program behavior ~rng:(Prng.create ~seed)

let record_calls () =
  let program, behavior, _ = Fixtures.call_loop ~iterations:20 () in
  Recorder.record program behavior ~rng:(Prng.create ~seed:3)

let check_same_recording a b =
  Alcotest.(check (array int)) "instances" a.Recorder.instances b.Recorder.instances;
  Alcotest.(check bytes) "arrivals" a.Recorder.arrivals b.Recorder.arrivals;
  Alcotest.(check int) "paths" (Recorder.num_paths a) (Recorder.num_paths b);
  Path_table.iter
    (fun p ->
       let q = Path_table.path b.Recorder.table p.Path.id in
       Alcotest.(check bool) "same signature" true
         (Signature.equal p.Path.signature q.Path.signature);
       Alcotest.(check (array int)) "same blocks" p.Path.blocks q.Path.blocks;
       Alcotest.(check int) "same instrs" p.Path.n_instrs q.Path.n_instrs;
       Alcotest.(check bool) "same end kind" true (p.Path.end_kind = q.Path.end_kind))
    a.Recorder.table;
  Alcotest.(check int) "stats blocks" a.Recorder.vm_stats.Vm.blocks
    b.Recorder.vm_stats.Vm.blocks;
  Alcotest.(check bool) "stats reason" true
    (a.Recorder.vm_stats.Vm.reason = b.Recorder.vm_stats.Vm.reason)

let roundtrip r =
  match Serialize.of_string (Serialize.Stream.to_string r) with
  | Ok r' -> r'
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_roundtrip_indirect () =
  let r = record_fixture () in
  check_same_recording r (roundtrip r)

let test_roundtrip_calls () =
  let r = record_calls () in
  check_same_recording r (roundtrip r)

let test_roundtrip_preserves_replay () =
  (* The real invariant: analyses over the reloaded trace are identical. *)
  let r = record_fixture () in
  let r' = roundtrip r in
  let o = Replay.run (module Net) ~delay:7 r in
  let o' = Replay.run (module Net) ~delay:7 r' in
  Alcotest.(check (array int)) "same predictions" o.Replay.predicted_at
    o'.Replay.predicted_at;
  Alcotest.(check int) "same counters" o.Replay.counter_space o'.Replay.counter_space

let test_roundtrip_suite_benchmark () =
  let bench = Hotpath_workloads.Suite.find_exn "deltablue" in
  let r = Hotpath_workloads.Suite.record ~scale:0.01 bench in
  check_same_recording r (roundtrip r)

let test_file_roundtrip () =
  let r = record_fixture () in
  let path = Filename.temp_file "hotpath" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Serialize.Stream.save r ~path;
       match Serialize.load ~path with
       | Ok r' -> check_same_recording r r'
       | Error e -> Alcotest.failf "load failed: %s" e)

let test_load_missing_file () =
  (* Neither a missing file nor a directory raises: both are [Error]. *)
  List.iter
    (fun path ->
       match Serialize.load ~path with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "expected error for %s" path
       | exception e ->
         Alcotest.failf "load %s raised %s" path (Printexc.to_string e))
    [ "/nonexistent/hotpath.trace"; Filename.get_temp_dir_name () ]

let expect_error name s =
  match Serialize.of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: corrupt input accepted" name

let test_rejects_bad_magic () =
  let r = record_fixture () in
  let s = Bytes.of_string (Serialize.Stream.to_string r) in
  Bytes.set s 0 'X';
  expect_error "bad magic" (Bytes.to_string s)

let test_rejects_truncation () =
  let r = record_fixture () in
  let s = Serialize.Stream.to_string r in
  List.iter
    (fun keep -> expect_error "truncated" (String.sub s 0 keep))
    [ 4; String.length s / 3; String.length s - 1 ]

let test_rejects_trailing_garbage () =
  let r = record_fixture () in
  expect_error "trailing" (Serialize.Stream.to_string r ^ "junk")

let test_rejects_bitflips () =
  (* Flip bytes across the payload; every corruption must yield Error or a
     recording that still satisfies the structural invariants (it must
     never crash). *)
  let r = record_fixture () in
  let s = Serialize.Stream.to_string r in
  let n = String.length s in
  for i = 0 to 19 do
    let pos = 8 + (i * (n - 9) / 19) in
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
    match Serialize.of_string (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
  done

let test_large_counts_roundtrip () =
  (* The unbounded counts (block weights, per-path instruction counts)
     are 64 bits on disk: values past 2^31 must survive a round trip
     instead of being silently truncated. *)
  let r = record_fixture () in
  let big = (1 lsl 31) + 7 in
  let program =
    {
      r.Recorder.program with
      Cfg.blocks =
        Array.map
          (fun b -> { b with Cfg.weight = b.Cfg.weight + big })
          r.Recorder.program.Cfg.blocks;
    }
  in
  let table = Path_table.create () in
  Path_table.iter
    (fun p ->
       ignore
         (Path_table.intern table p.Path.signature ~blocks:p.Path.blocks
            ~n_instrs:(p.Path.n_instrs + big) ~n_branches:p.Path.n_branches
            ~end_kind:p.Path.end_kind))
    r.Recorder.table;
  match
    Recorder.of_parts ~program ~table ~instances:r.Recorder.instances
      ~arrivals:r.Recorder.arrivals ~vm_stats:r.Recorder.vm_stats
  with
  | Error e -> Alcotest.failf "fixture rebuild failed: %s" e
  | Ok big_r ->
    let r' = roundtrip big_r in
    Array.iteri
      (fun i (b : Cfg.block) ->
         Alcotest.(check int) "weight past 2^31" b.Cfg.weight
           r'.Recorder.program.Cfg.blocks.(i).Cfg.weight)
      program.Cfg.blocks;
    Path_table.iter
      (fun p ->
         Alcotest.(check int) "n_instrs past 2^31" p.Path.n_instrs
           (Path_table.path r'.Recorder.table p.Path.id).Path.n_instrs)
      big_r.Recorder.table

let test_oversized_i32_raises () =
  (* A 32-bit field that cannot represent its value must raise on write,
     never truncate. *)
  let b = Cfg.Builder.create ~name:"overflow" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let table = Path_table.create () in
  let sigb = Signature.Builder.create ~head:0 in
  (* Indirect targets are interned verbatim in the signature and stored as
     32-bit ids on disk. *)
  Signature.Builder.add_indirect sigb ~target:(1 lsl 32);
  ignore
    (Path_table.intern table
       (Signature.Builder.freeze sigb)
       ~blocks:[| 0 |] ~n_instrs:1 ~n_branches:0 ~end_kind:Path.Program_end);
  match
    Recorder.of_parts ~program ~table ~instances:[| 0 |]
      ~arrivals:(Bytes.make 1 '\000')
      ~vm_stats:(record_fixture ()).Recorder.vm_stats
  with
  | Error e -> Alcotest.failf "fixture rebuild failed: %s" e
  | Ok r -> (
      match Serialize.Stream.to_string r with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "oversized 32-bit field silently accepted")

let test_of_parts_validation () =
  let r = record_fixture () in
  let bad_instances = Array.make (Recorder.num_instances r) 999_999 in
  (match
     Recorder.of_parts ~program:r.Recorder.program ~table:r.Recorder.table
       ~instances:bad_instances ~arrivals:r.Recorder.arrivals
       ~vm_stats:r.Recorder.vm_stats
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "out-of-range instance accepted");
  match
    Recorder.of_parts ~program:r.Recorder.program ~table:r.Recorder.table
      ~instances:r.Recorder.instances ~arrivals:(Bytes.create 1)
      ~vm_stats:r.Recorder.vm_stats
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arrival-length mismatch accepted"

let suites =
  [
    ( "trace.serialize",
      [
        Alcotest.test_case "roundtrip indirect loop" `Quick test_roundtrip_indirect;
        Alcotest.test_case "roundtrip call loop" `Quick test_roundtrip_calls;
        Alcotest.test_case "roundtrip preserves replay" `Quick
          test_roundtrip_preserves_replay;
        Alcotest.test_case "roundtrip suite benchmark" `Quick
          test_roundtrip_suite_benchmark;
        Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
        Alcotest.test_case "missing file" `Quick test_load_missing_file;
        Alcotest.test_case "bad magic" `Quick test_rejects_bad_magic;
        Alcotest.test_case "truncation" `Quick test_rejects_truncation;
        Alcotest.test_case "trailing garbage" `Quick test_rejects_trailing_garbage;
        Alcotest.test_case "bitflips never crash" `Quick test_rejects_bitflips;
        Alcotest.test_case "counts past 2^31 roundtrip" `Quick
          test_large_counts_roundtrip;
        Alcotest.test_case "oversized 32-bit field raises" `Quick
          test_oversized_i32_raises;
        Alcotest.test_case "of_parts validation" `Quick test_of_parts_validation;
      ] );
  ]
