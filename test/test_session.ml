(* Online prediction sessions: the differential harness.

   The contract under test is the tentpole guarantee: pushing a trace
   into a [Session] in *any* granularity — one instance at a time, prime
   chunk sizes, chunks larger than the trace — produces outcomes, event
   streams, and counter-registry snapshots bit-identical to the batch
   engine ([Replay.run_many]) and the file-replay engine
   ([Replay.run_many_mapped]) on the same instances.  The suite drives
   every scheme over several fixtures at adversarial granularities, and
   separately proves the online lint gate rejects a malformed batch with
   zero session mutation. *)

module Recorder = Hotpath_trace.Recorder
module Serialize = Hotpath_trace.Serialize
module Stream = Hotpath_trace.Serialize.Stream
module Lint = Hotpath_trace.Lint
module Diag = Hotpath_analysis.Diag
module Replay = Hotpath_prediction.Replay
module Session = Hotpath_prediction.Session
module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Events = Hotpath_util.Events
module Prng = Hotpath_util.Prng
module Batch = Hotpath_trace.Batch

let schemes : (string * Scheme.packed) list =
  [
    ("net", (module Net));
    ("net-once", (module Net.Net_once));
    ("let", (module Net.Last_executed_tail));
    ("path-profile", (module Path_profile));
    (* The k-iteration families ride the same differential matrix: k = 1
       (the reduction case) and one k > 1 per family. *)
    ("net-k1", Hotpath_prediction.Net_k.make 1);
    ("net-k2", Hotpath_prediction.Net_k.make 2);
    ("path-profile-k1", Hotpath_prediction.Path_profile_k.make 1);
    ("path-profile-k2", Hotpath_prediction.Path_profile_k.make 2);
  ]

let fixtures () =
  [
    ("indirect_loop", Test_serialize.record_fixture ());
    ("call_loop", Test_serialize.record_calls ());
    ( "compress",
      Hotpath_workloads.Suite.record ~scale:0.01
        (Hotpath_workloads.Suite.find_exn "compress") );
  ]

let delays = [ 1; 7; 50 ]

(* Granularities chosen to be adversarial: per-instance, prime sizes
   that never align with internal chunking, exactly the trace length,
   and longer than the trace. *)
let granularities n = [ 1; 13; 997; n; n + 17 ]

let session_exn ?events ?lint ?on_predict packed ~delays (r : Recorder.t) =
  match
    Session.create ?events ?lint ?on_predict packed ~delays
      ~program:r.Recorder.program ~table:r.Recorder.table
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "Session.create on clean fixture: %s" e

(* Fill [b] with instances [off, off + len) of [r]. *)
let fill_batch (b : Batch.t) (r : Recorder.t) off len =
  Batch.ensure b len;
  Array.blit r.Recorder.instances off b.Batch.ids 0 len;
  Bytes.blit r.Recorder.arrivals off b.Batch.arrs 0 len;
  Batch.set_length b len

let batch_of r off len =
  let b = Batch.create () in
  fill_batch b r off len;
  b

(* Push [r] in slices of [g] instances, each in a batch of its own. *)
let push_sliced sess (r : Recorder.t) g =
  let n = Array.length r.Recorder.instances in
  let off = ref 0 in
  while !off < n do
    let len = min g (n - !off) in
    (match Session.push_batch sess (batch_of r !off len) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "push_batch (granularity %d): %s" g e);
    off := !off + len
  done

(* Same slicing as [push_sliced], but every slice refills one batch —
   exactly the readers' shape, where each instance frame is decoded
   into the same storage. *)
let push_sliced_batch sess (r : Recorder.t) g =
  let b = Batch.create ~capacity:8 () in
  let n = Array.length r.Recorder.instances in
  let off = ref 0 in
  while !off < n do
    let len = min g (n - !off) in
    fill_batch b r !off len;
    (match Session.push_batch sess b with
    | Ok () -> ()
    | Error e -> Alcotest.failf "push_batch (granularity %d): %s" g e);
    off := !off + len
  done

let check_outcome label (a : Replay.outcome) (b : Session.outcome) =
  let chk name = Alcotest.(check int) (label ^ ": " ^ name) in
  Alcotest.(check string) (label ^ ": scheme") a.Replay.scheme_name
    b.Session.scheme_name;
  chk "delay" a.Replay.delay b.Session.delay;
  chk "total_instances" a.Replay.total_instances b.Session.total_instances;
  Alcotest.(check bool)
    (label ^ ": predictions") true
    (a.Replay.predictions = b.Session.predictions);
  Alcotest.(check (array int)) (label ^ ": predicted_at") a.Replay.predicted_at
    b.Session.predicted_at;
  Alcotest.(check (array int)) (label ^ ": freq") a.Replay.freq b.Session.freq;
  Alcotest.(check (array int)) (label ^ ": captured") a.Replay.captured
    b.Session.captured;
  chk "profiled_instances" a.Replay.profiled_instances
    b.Session.profiled_instances;
  chk "captured_instances" a.Replay.captured_instances
    b.Session.captured_instances;
  chk "counter_space" a.Replay.counter_space b.Session.counter_space;
  chk "profiling_ops" a.Replay.profiling_ops b.Session.profiling_ops;
  chk "collection_ops" a.Replay.collection_ops b.Session.collection_ops

let check_outcomes label batch session =
  Alcotest.(check int) (label ^ ": lane count") (List.length batch)
    (List.length session);
  List.iter2 (check_outcome label) batch session

(* ------------------------------------------------------------------ *)
(* Differential: every scheme x fixture x granularity vs batch          *)
(* ------------------------------------------------------------------ *)

(* Each scheme against its own batch replay, plus each kernel's generic
   twin against the kernel's batch replay: since batch replay runs
   sessions too, the twins are what hold every kernel to the generic
   loop on the push source. *)
let differential =
  List.map (fun (name, packed) -> (name, packed, packed)) schemes
  @ List.map
      (fun (name, kernel, twin) -> (name ^ "~generic", twin, kernel))
      Generic_twins.pairs

let test_differential_granularities () =
  List.iter
    (fun (fname, r) ->
      let n = Array.length r.Recorder.instances in
      List.iter
        (fun (sname, packed, reference) ->
          let batch = Replay.run_many reference ~delays r in
          List.iter
            (fun g ->
              let sess = session_exn packed ~delays r in
              push_sliced sess r g;
              let label = Printf.sprintf "%s/%s/g=%d" fname sname g in
              check_outcomes label batch (Session.finish sess))
            (granularities n))
        differential)
    (fixtures ())

let test_differential_single_push () =
  (* Instance by instance: a one-instance push_batch per instance, all
     through one reused batch. *)
  let r = Test_serialize.record_fixture () in
  List.iter
    (fun (sname, packed) ->
      let batch = Replay.run_many packed ~delays r in
      let sess = session_exn packed ~delays r in
      push_sliced_batch sess r 1;
      check_outcomes ("push/" ^ sname) batch (Session.finish sess))
    schemes

let test_differential_vs_stream () =
  (* Three sources, one answer: batch, streamed reader, session. *)
  let r = Test_serialize.record_calls () in
  List.iter
    (fun (sname, packed, reference) ->
      let batch = Replay.run_many reference ~delays r in
      let streamed =
        match
          Replay.run_many_mapped packed ~delays
            (Stream.of_recorder ~chunk_instances:64 r)
        with
        | Error e -> Alcotest.failf "run_many_mapped: %s" e
        | Ok os -> os
      in
      check_outcomes ("stream/" ^ sname) batch streamed;
      let sess = session_exn packed ~delays r in
      push_sliced sess r 64;
      check_outcomes ("session/" ^ sname) batch (Session.finish sess))
    differential

let test_push_batch_event_stream_identical () =
  let r = Test_serialize.record_fixture () in
  let window = 1024 in
  List.iter
    (fun (sname, packed) ->
      let run_batch () =
        let buf = Buffer.create 4096 in
        let ev = Replay.events ~window (Events.of_buffer buf) in
        ignore (Replay.run_many ~events:ev packed ~delays r : Replay.outcome list);
        Buffer.contents buf
      in
      let run_session g =
        let buf = Buffer.create 4096 in
        let ev = Session.events ~window (Events.of_buffer buf) in
        let sess = session_exn ~events:ev packed ~delays r in
        push_sliced_batch sess r g;
        ignore (Session.finish sess : Session.outcome list);
        Buffer.contents buf
      in
      let batch_lines = run_batch () in
      List.iter
        (fun g ->
          Alcotest.(check string)
            (Printf.sprintf "%s batch events g=%d" sname g)
            batch_lines (run_session g))
        [ 1; 13; 4096 ])
    [ ("net", (module Net : Scheme.S)); ("path-profile", (module Path_profile)) ]

let test_push_batch_validates_under_lint () =
  (* With the trace linter on, undeclared ids and invalid arrival codes
     are its T201/T202 findings, refused before any state moves. *)
  let r = Test_serialize.record_fixture () in
  let sess = session_exn (module Net) ~delays r in
  let np = Hotpath_trace.Path_table.size r.Recorder.table in
  let mentions code e =
    let n = String.length code in
    let rec at i =
      i + n <= String.length e && (String.sub e i n = code || at (i + 1))
    in
    at 0
  in
  let one id code =
    let b = Batch.create ~capacity:1 () in
    b.Batch.ids.(0) <- id;
    Bytes.set b.Batch.arrs 0 (Char.chr code);
    Batch.set_length b 1;
    b
  in
  (match Session.push_batch sess (one (np + 3) 0) with
  | Ok () -> Alcotest.fail "out-of-range path id accepted"
  | Error e ->
    Alcotest.(check bool) ("T201: " ^ e) true (mentions "[T201]" e));
  (match Session.push_batch sess (one 0 7) with
  | Ok () -> Alcotest.fail "invalid arrival code accepted"
  | Error e ->
    Alcotest.(check bool) ("T202: " ^ e) true (mentions "[T202]" e));
  Alcotest.(check int) "nothing accepted" 0 (Session.instances sess)

(* ------------------------------------------------------------------ *)
(* Event streams and the counter registry                              *)
(* ------------------------------------------------------------------ *)

let test_event_stream_identical () =
  let r = Test_serialize.record_fixture () in
  let window = 1024 in
  List.iter
    (fun (sname, packed) ->
      let run_batch () =
        let buf = Buffer.create 4096 in
        let ev = Replay.events ~window (Events.of_buffer buf) in
        ignore (Replay.run_many ~events:ev packed ~delays r : Replay.outcome list);
        Buffer.contents buf
      in
      let run_session g =
        let buf = Buffer.create 4096 in
        let ev = Session.events ~window (Events.of_buffer buf) in
        let sess = session_exn ~events:ev packed ~delays r in
        push_sliced sess r g;
        ignore (Session.finish sess : Session.outcome list);
        Buffer.contents buf
      in
      let batch_lines = run_batch () in
      List.iter
        (fun g ->
          Alcotest.(check string)
            (Printf.sprintf "%s events g=%d" sname g)
            batch_lines (run_session g))
        [ 1; 13; 4096 ])
    schemes

let test_registry_identical () =
  let r = Test_serialize.record_fixture () in
  let snapshot run =
    Events.Registry.reset ();
    run ();
    Events.Registry.snapshot ()
  in
  let buf = Buffer.create 4096 in
  let batch =
    snapshot (fun () ->
        let ev = Replay.events ~window:512 (Events.of_buffer buf) in
        ignore
          (Replay.run_many ~events:ev (module Net) ~delays r
            : Replay.outcome list))
  in
  let session =
    snapshot (fun () ->
        let ev = Session.events ~window:512 (Events.of_buffer buf) in
        let sess = session_exn ~events:ev (module Net) ~delays r in
        push_sliced sess r 13;
        ignore (Session.finish sess : Session.outcome list))
  in
  Events.Registry.reset ();
  Alcotest.(check bool) "registry snapshots identical" true (batch = session)

let test_on_predict_matches_outcomes () =
  let r = Test_serialize.record_fixture () in
  let fired = ref [] in
  let on_predict ~delay ~target ~at_instance =
    fired := (delay, target, at_instance) :: !fired
  in
  let sess = session_exn ~on_predict (module Net) ~delays r in
  push_sliced sess r 13;
  let outcomes = Session.finish sess in
  let expected =
    List.concat_map
      (fun (o : Session.outcome) ->
        Array.to_list o.Session.predictions
        |> List.map (fun (p : Session.prediction) ->
               (o.Session.delay, p.Session.target, p.Session.at_instance)))
      outcomes
    |> List.sort compare
  in
  Alcotest.(check bool)
    "on_predict fired exactly the outcome predictions" true
    (List.sort compare !fired = expected)

(* ------------------------------------------------------------------ *)
(* The online lint gate                                                *)
(* ------------------------------------------------------------------ *)

(* A fresh recording with one arrival byte mid-trace rewritten to
   "entry" — a T2xx-class trace error the full linter rejects. *)
let corrupted_fixture () =
  let r = Test_serialize.record_fixture () in
  let n = Bytes.length r.Recorder.arrivals in
  Alcotest.(check bool) "fixture long enough" true (n > 16);
  let i =
    let j = ref ((n / 2) + 1) in
    while !j < n && Bytes.get r.Recorder.arrivals !j = '\001' do
      incr j
    done;
    if !j >= n then Alcotest.fail "no corruptible arrival after midpoint";
    !j
  in
  let orig = Bytes.get r.Recorder.arrivals i in
  Bytes.set r.Recorder.arrivals i '\001';
  let diags =
    Lint.check_parts ~program:r.Recorder.program ~table:r.Recorder.table
      ~instances:r.Recorder.instances ~arrivals:r.Recorder.arrivals
  in
  Alcotest.(check bool) "full linter rejects the mutation" true
    (Diag.has_errors diags);
  (r, i, orig)

let test_lint_rejects_without_mutation () =
  (* Once with the paper's scheme, once with a k-iteration scheme: the
     gate sits in front of the scheme, so recovery must be
     scheme-agnostic — including the sliding-window trie state. *)
  List.iter
    (fun (sname, packed) ->
      let r, bad_at, orig = corrupted_fixture () in
      let sess = session_exn packed ~delays r in
      (* Clean prefix: everything before the bad instance. *)
      let push lo len = Session.push_batch sess (batch_of r lo len) in
      (match push 0 bad_at with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: clean prefix rejected: %s" sname e);
      let before = Session.instances sess in
      let n = Array.length r.Recorder.instances in
      (* The batch containing the bad arrival must be refused... *)
      (match push bad_at (n - bad_at) with
      | Ok () -> Alcotest.failf "%s: lint gate accepted a T2xx trace chunk" sname
      | Error e ->
        Alcotest.(check bool) (sname ^ ": error mentions a T-code") true
          (String.length e > 0 && String.contains e 'T'));
      (* ...with zero state mutation: the instance count is unchanged and
         the session still accepts the *corrected* suffix, finishing
         bit-identical to batch on the corrected trace. *)
      Alcotest.(check int)
        (sname ^ ": no instances accepted from the bad chunk")
        before (Session.instances sess);
      Bytes.set r.Recorder.arrivals bad_at orig;
      (match push bad_at (n - bad_at) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: corrected suffix rejected: %s" sname e);
      let batch = Replay.run_many packed ~delays r in
      check_outcomes (sname ^ ": after-recovery") batch (Session.finish sess))
    [
      ("net", (module Net : Scheme.S));
      ("path-profile-k2", Hotpath_prediction.Path_profile_k.make 2);
    ]

let test_unlinted_session_still_validates_ids () =
  (* lint:false skips the trace linter but not decode-level sanity:
     undeclared path ids and bad arrival codes must still be refused
     (capacity-grown arrays would silently absorb them otherwise). *)
  let r = Test_serialize.record_fixture () in
  let sess = session_exn ~lint:false (module Net) ~delays r in
  let np = Hotpath_trace.Path_table.size r.Recorder.table in
  let b = batch_of r 0 1 in
  b.Batch.ids.(0) <- np + 3;
  (match Session.push_batch sess b with
  | Ok () -> Alcotest.fail "out-of-range path id accepted"
  | Error _ -> ());
  b.Batch.ids.(0) <- 0;
  Bytes.set b.Batch.arrs 0 '\007';
  (match Session.push_batch sess b with
  | Ok () -> Alcotest.fail "invalid arrival code accepted"
  | Error _ -> ());
  Alcotest.(check int) "nothing accepted" 0 (Session.instances sess);
  (* A batch whose length runs past its arrays is refused, linted or
     not: the lane loops read slots [0, length) unchecked. *)
  List.iter
    (fun lint ->
      let sess = session_exn ~lint (module Net) ~delays r in
      List.iter
        (fun n ->
          let b = batch_of r 0 1 in
          b.Batch.n <- (if n < 0 then n else Array.length b.Batch.ids + n);
          match Session.push_batch sess b with
          | Ok () -> Alcotest.failf "batch length %d accepted" b.Batch.n
          | Error _ -> ())
        [ -1; 1 ];
      Alcotest.(check int) "nothing accepted" 0 (Session.instances sess))
    [ false; true ]

let test_bad_declared_path_refused () =
  (* [Path_table.intern] takes any blocks, so an unlinted session can be
     handed a table whose path head is not a program block.  The kernels
     index block arrays by head unchecked; the per-path sync must refuse
     the push with an [Error] — for every loop, before any state moves —
     and must not crash. *)
  let r = Test_serialize.record_fixture () in
  let program = r.Recorder.program in
  let n_blocks = Array.length program.Hotpath_cfg.Cfg.blocks in
  let intern table ~head ~blocks =
    let sigb = Hotpath_trace.Signature.Builder.create ~head in
    Hotpath_trace.Path_table.intern table
      (Hotpath_trace.Signature.Builder.freeze sigb)
      ~blocks ~n_instrs:1 ~n_branches:0
      ~end_kind:Hotpath_trace.Path.Program_end
  in
  List.iter
    (fun (label, blocks) ->
      List.iter
        (fun (sname, packed) ->
          let table = Hotpath_trace.Path_table.create () in
          let good = intern table ~head:0 ~blocks:[| 0 |] in
          let bad = intern table ~head:n_blocks ~blocks in
          let sess =
            match
              Session.create ~lint:false packed ~delays ~program ~table
            with
            | Ok s -> s
            | Error e -> Alcotest.failf "create: %s" e
          in
          let b = Batch.create ~capacity:2 () in
          b.Batch.ids.(0) <- good;
          b.Batch.ids.(1) <- bad;
          Batch.set_length b 2;
          (match Session.push_batch sess b with
          | Ok () -> Alcotest.failf "%s/%s: bad path accepted" label sname
          | Error _ -> ());
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: nothing accepted" label sname)
            0 (Session.instances sess))
        schemes)
    [ ("head past the program", [| n_blocks + 5 |]); ("no blocks", [||]) ]

(* ------------------------------------------------------------------ *)
(* Lifecycle edges                                                     *)
(* ------------------------------------------------------------------ *)

let test_finish_idempotent_and_final () =
  let r = Test_serialize.record_fixture () in
  let sess = session_exn (module Net) ~delays r in
  push_sliced sess r 997;
  let a = Session.finish sess in
  let b = Session.finish sess in
  Alcotest.(check bool) "finish is idempotent" true (a = b);
  match Session.push_batch sess (batch_of r 0 1) with
  | Ok () -> Alcotest.fail "push after finish accepted"
  | Error _ -> ()

let test_empty_session () =
  let r = Test_serialize.record_fixture () in
  let sess = session_exn (module Net) ~delays r in
  let outcomes = Session.finish sess in
  Alcotest.(check int) "lanes" (List.length delays) (List.length outcomes);
  List.iter
    (fun (o : Session.outcome) ->
      Alcotest.(check int) "no instances" 0 o.Session.total_instances;
      Alcotest.(check int) "no predictions" 0
        (Array.length o.Session.predictions))
    outcomes

let suites =
  [
    ( "session.differential",
      [
        Alcotest.test_case "all schemes x granularities ≡ batch" `Quick
          test_differential_granularities;
        Alcotest.test_case "single-instance push ≡ batch" `Quick
          test_differential_single_push;
        Alcotest.test_case "batch ≡ stream ≡ session" `Quick
          test_differential_vs_stream;
        Alcotest.test_case "push_batch event streams byte-identical" `Quick
          test_push_batch_event_stream_identical;
        Alcotest.test_case "push_batch validates under the lint gate" `Quick
          test_push_batch_validates_under_lint;
        Alcotest.test_case "event streams byte-identical" `Quick
          test_event_stream_identical;
        Alcotest.test_case "registry snapshots identical" `Quick
          test_registry_identical;
        Alcotest.test_case "on_predict mirrors outcomes" `Quick
          test_on_predict_matches_outcomes;
      ] );
    ( "session.lint",
      [
        Alcotest.test_case "T2xx chunk rejected without mutation" `Quick
          test_lint_rejects_without_mutation;
        Alcotest.test_case "unlinted sessions still validate input" `Quick
          test_unlinted_session_still_validates_ids;
        Alcotest.test_case "declared path outside the program refused" `Quick
          test_bad_declared_path_refused;
      ] );
    ( "session.lifecycle",
      [
        Alcotest.test_case "finish idempotent, then pushes fail" `Quick
          test_finish_idempotent_and_final;
        Alcotest.test_case "empty session" `Quick test_empty_session;
      ] );
  ]
