(* Differential tests for the observability layer: events are observation
   only.  For every scheme × seed × delay, replay with an enabled sink
   must produce a byte-identical outcome to replay with no events at all,
   and the final window sample's cumulative fields must equal the
   outcome's totals.  Also covers the JSON-Lines round trip and the
   counter registry. *)

module Events = Hotpath_util.Events
module Recorder = Hotpath_trace.Recorder
module Serialize = Hotpath_trace.Serialize
module Replay = Hotpath_prediction.Replay
module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Hot_set = Hotpath_metrics.Hot_set
module Prng = Hotpath_util.Prng

(* ------------------------------------------------------------------ *)
(* JSON-Lines round trip                                               *)
(* ------------------------------------------------------------------ *)

let value_eq a b =
  match (a, b) with
  | Events.Float x, Events.Float y -> Float.equal x y
  | _ -> a = b

let fields_eq a b =
  List.length a = List.length b
  && List.for_all2 (fun (n, v) (n', v') -> n = n' && value_eq v v') a b

let parse_ok line =
  match Events.parse_line line with
  | Ok fields -> fields
  | Error e -> Alcotest.failf "parse_line %S: %s" line e

let test_roundtrip_scalars () =
  let buf = Buffer.create 256 in
  let sink = Events.of_buffer buf in
  let fields =
    [ ("i", Events.Int 42); ("neg", Events.Int (-7));
      ("f", Events.Float 3.5); ("tiny", Events.Float 1e-9);
      ("s", Events.Str "plain"); ("b", Events.Bool true);
      ("b2", Events.Bool false) ]
  in
  Events.emit sink ~kind:"test.kind" fields;
  let line = Buffer.contents buf in
  Alcotest.(check bool) "one newline, at the end" true
    (String.length line > 0
    && line.[String.length line - 1] = '\n'
    && not (String.contains (String.sub line 0 (String.length line - 1)) '\n'));
  let parsed = parse_ok line in
  Alcotest.(check (option string)) "kind" (Some "test.kind")
    (Events.kind parsed);
  Alcotest.(check bool) "fields survive" true
    (fields_eq (("ev", Events.Str "test.kind") :: fields) parsed)

let test_roundtrip_string_escapes () =
  let buf = Buffer.create 256 in
  let sink = Events.of_buffer buf in
  let tricky = "quote\" back\\slash \t tab \n newline \x01 ctl" in
  Events.emit sink ~kind:"esc" [ ("s", Events.Str tricky) ];
  let parsed = parse_ok (Buffer.contents buf) in
  Alcotest.(check (option string)) "escaped string survives" (Some tricky)
    (Events.find_str parsed "s")

let test_parse_rejects_garbage () =
  List.iter
    (fun line ->
       match Events.parse_line line with
       | Ok _ -> Alcotest.failf "accepted %S" line
       | Error _ -> ())
    [ ""; "not json"; "{\"ev\":"; "{\"ev\":\"x\""; "{\"ev\":\"x\",}";
      "[1,2]"; "{\"a\":{\"nested\":1}}" ]

let test_null_sink_counts_nothing () =
  Events.emit Events.null ~kind:"dropped" [ ("x", Events.Int 1) ];
  Alcotest.(check int) "null emits nothing" 0 (Events.emitted Events.null);
  Alcotest.(check bool) "is_null" true (Events.is_null Events.null);
  let sink = Events.of_buffer (Buffer.create 16) in
  Alcotest.(check bool) "buffer sink is live" false (Events.is_null sink)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_semantics () =
  Events.Registry.reset ();
  let c = Events.Registry.counter "test.counter" in
  Alcotest.(check int) "starts at 0" 0 (Events.Registry.value c);
  Events.Registry.incr c;
  Events.Registry.add c 9;
  Alcotest.(check int) "value" 10 (Events.Registry.value c);
  Events.Registry.add c (-4);
  Alcotest.(check int) "gauge down" 6 (Events.Registry.value c);
  Alcotest.(check int) "high water sticks" 10 (Events.Registry.high_water c);
  Events.Registry.set c 3;
  Alcotest.(check int) "set" 3 (Events.Registry.value c);
  Alcotest.(check int) "hw unchanged by lower set" 10
    (Events.Registry.high_water c);
  let c' = Events.Registry.counter "test.counter" in
  Events.Registry.incr c';
  Alcotest.(check int) "interned: same counter" 4 (Events.Registry.value c);
  let snap = Events.Registry.snapshot () in
  Alcotest.(check bool) "snapshot holds (value, hw)" true
    (List.assoc "test.counter" snap = (4, 10));
  Events.Registry.reset ()

let test_registry_snapshot_event () =
  Events.Registry.reset ();
  let c = Events.Registry.counter "snap.a" in
  Events.Registry.set c 17;
  let buf = Buffer.create 64 in
  Events.registry_snapshot (Events.of_buffer buf);
  let parsed = parse_ok (Buffer.contents buf) in
  Alcotest.(check (option string)) "kind" (Some "registry")
    (Events.kind parsed);
  Alcotest.(check (option int)) "value field" (Some 17)
    (Events.find_int parsed "snap.a");
  Alcotest.(check (option int)) "hw field" (Some 17)
    (Events.find_int parsed "snap.a.hw");
  Events.Registry.reset ()

(* ------------------------------------------------------------------ *)
(* Differential: events on vs off                                      *)
(* ------------------------------------------------------------------ *)

let schemes : (string * Scheme.packed) list =
  [ ("net", (module Net)); ("net-once", (module Net.Net_once));
    ("let", (module Net.Last_executed_tail));
    ("path-profile", (module Path_profile)) ]

let seeds = [ 1; 4; 9 ]

let delays = [ 1; 3; 10; 50 ]

let recording seed =
  let program, behavior, _ = Fixtures.indirect_loop ~exit_prob:0.02 () in
  Recorder.record ~max_steps:8_000 program behavior ~rng:(Prng.create ~seed)

let outcome_equal (a : Replay.outcome) (b : Replay.outcome) =
  a.Replay.scheme_name = b.Replay.scheme_name
  && a.Replay.delay = b.Replay.delay
  && a.Replay.total_instances = b.Replay.total_instances
  && a.Replay.predictions = b.Replay.predictions
  && a.Replay.predicted_at = b.Replay.predicted_at
  && a.Replay.freq = b.Replay.freq
  && a.Replay.captured = b.Replay.captured
  && a.Replay.profiled_instances = b.Replay.profiled_instances
  && a.Replay.captured_instances = b.Replay.captured_instances
  && a.Replay.counter_space = b.Replay.counter_space
  && a.Replay.profiling_ops = b.Replay.profiling_ops
  && a.Replay.collection_ops = b.Replay.collection_ops

let parse_all buf =
  Buffer.contents buf |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map parse_ok

let int_field what fields name =
  match Events.find_int fields name with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing int field %S" what name

(* Last replay.window sample of one (scheme, delay) lane. *)
let last_window events ~scheme ~delay =
  let lane =
    List.filter
      (fun f ->
         Events.kind f = Some "replay.window"
         && Events.find_str f "scheme" = Some scheme
         && Events.find_int f "delay" = Some delay)
      events
  in
  match List.rev lane with
  | [] -> Alcotest.failf "no replay.window samples for %s delay=%d" scheme delay
  | last :: _ -> (List.length lane, last)

let check_final_window ~what ~scheme (o : Replay.outcome) events =
  let n, last = last_window events ~scheme ~delay:o.Replay.delay in
  let f = int_field what last in
  Alcotest.(check int) (what ^ ": final seq") (n - 1) (f "seq");
  Alcotest.(check int) (what ^ ": upto = total") o.Replay.total_instances
    (f "upto");
  Alcotest.(check int) (what ^ ": predictions")
    (Array.length o.Replay.predictions) (f "predictions");
  Alcotest.(check int) (what ^ ": profiled") o.Replay.profiled_instances
    (f "profiled");
  Alcotest.(check int) (what ^ ": captured") o.Replay.captured_instances
    (f "captured");
  Alcotest.(check int) (what ^ ": profiling_ops") o.Replay.profiling_ops
    (f "profiling_ops");
  Alcotest.(check int) (what ^ ": collection_ops") o.Replay.collection_ops
    (f "collection_ops");
  Alcotest.(check int) (what ^ ": counter_space") o.Replay.counter_space
    (f "counter_space");
  Alcotest.(check bool) (what ^ ": hw >= final") true
    (f "counter_space_hw" >= f "counter_space")

let test_differential_run () =
  List.iter
    (fun seed ->
       let r = recording seed in
       List.iter
         (fun (name, scheme) ->
            List.iter
              (fun delay ->
                 let plain = Replay.run scheme ~delay r in
                 let buf = Buffer.create 4096 in
                 let ev =
                   Replay.events ~window:1_000 (Events.of_buffer buf)
                 in
                 let sampled = Replay.run ~events:ev scheme ~delay r in
                 Alcotest.(check bool)
                   (Printf.sprintf "%s seed=%d delay=%d identical" name seed
                      delay)
                   true
                   (outcome_equal plain sampled);
                 let what = Printf.sprintf "%s/%d/%d" name seed delay in
                 check_final_window ~what ~scheme:name plain
                   (parse_all buf))
              delays)
         schemes)
    seeds

let test_differential_run_many () =
  let r = recording 4 in
  List.iter
    (fun (name, scheme) ->
       let plain = List.map (fun d -> Replay.run scheme ~delay:d r) delays in
       let buf = Buffer.create 4096 in
       let ev = Replay.events ~window:700 (Events.of_buffer buf) in
       let sampled = Replay.run_many ~events:ev scheme ~delays r in
       List.iter2
         (fun a b ->
            Alcotest.(check bool)
              (Printf.sprintf "%s delay=%d run_many identical" name
                 a.Replay.delay)
              true (outcome_equal a b))
         plain sampled;
       (* Every lane samples into the same stream; each final window must
          still reconcile with its own outcome. *)
       let events = parse_all buf in
       List.iter
         (fun o ->
            check_final_window
              ~what:(Printf.sprintf "%s many/%d" name o.Replay.delay)
              ~scheme:name o events)
         plain)
    schemes

let test_differential_stream () =
  let r = recording 9 in
  List.iter
    (fun (name, scheme) ->
       (* A pull-fed reader, as [replay --stream] opens a pipe. *)
       let open_reader () = Serialize.Stream.of_recorder ~chunk_instances:512 r in
       let plain =
         match Replay.run_mapped scheme ~delay:5 (open_reader ()) with
         | Ok o -> o
         | Error e -> Alcotest.failf "plain stream replay: %s" e
       in
       let buf = Buffer.create 4096 in
       let ev = Replay.events ~window:900 (Events.of_buffer buf) in
       match Replay.run_mapped ~events:ev scheme ~delay:5 (open_reader ()) with
       | Error e -> Alcotest.failf "sampled stream replay: %s" e
       | Ok sampled ->
         Alcotest.(check bool) (name ^ ": stream identical") true
           (outcome_equal plain sampled);
         let events = parse_all buf in
         check_final_window ~what:(name ^ " stream") ~scheme:name plain events;
         (* Streamed replay cannot know the hot set mid-pass. *)
         let _, last = last_window events ~scheme:name ~delay:5 in
         Alcotest.(check (option int)) (name ^ ": no hits field") None
           (Events.find_int last "hits"))
    schemes

let test_hits_noise_partition_captured () =
  let r = recording 1 in
  let plain = Replay.run (module Net) ~delay:3 r in
  let hot = Hot_set.of_outcome plain ~threshold:0.001 in
  let buf = Buffer.create 4096 in
  let ev =
    Replay.events ~window:500 ~is_hot:(Hot_set.is_hot hot)
      (Events.of_buffer buf)
  in
  let o = Replay.run ~events:ev (module Net) ~delay:3 r in
  Alcotest.(check bool) "is_hot does not perturb outcome" true
    (outcome_equal plain o);
  let events = parse_all buf in
  let _, last = last_window events ~scheme:"net" ~delay:3 in
  let hits = int_field "hits/noise" last "hits" in
  let noise = int_field "hits/noise" last "noise" in
  Alcotest.(check int) "hits + noise = captured" o.Replay.captured_instances
    (hits + noise)

let test_null_sink_events_are_free () =
  let r = recording 1 in
  let plain = Replay.run (module Net) ~delay:3 r in
  let ev = Replay.events ~window:500 Events.null in
  let o = Replay.run ~events:ev (module Net) ~delay:3 r in
  Alcotest.(check bool) "null-sink events identical" true
    (outcome_equal plain o);
  Alcotest.(check int) "nothing emitted" 0 (Events.emitted Events.null)

let test_short_trace_still_samples_once () =
  (* A trace shorter than one window must still emit exactly one final
     sample per lane, reconciling to the totals. *)
  let program, behavior, _ = Fixtures.simple_loop ~iterations:12 () in
  let r = Recorder.record program behavior ~rng:(Prng.create ~seed:1) in
  let buf = Buffer.create 512 in
  let ev = Replay.events ~window:1_000_000 (Events.of_buffer buf) in
  let o = Replay.run ~events:ev (module Net) ~delay:3 r in
  let events = parse_all buf in
  let n, _ = last_window events ~scheme:"net" ~delay:3 in
  Alcotest.(check int) "exactly one window" 1 n;
  check_final_window ~what:"short trace" ~scheme:"net" o events

let test_events_window_validation () =
  Alcotest.check_raises "window 0 rejected"
    (Invalid_argument "Replay.events: window must be >= 1") (fun () ->
      ignore (Replay.events ~window:0 Events.null))

let suites =
  [ ( "events.stream",
      [ Alcotest.test_case "scalar round trip" `Quick test_roundtrip_scalars;
        Alcotest.test_case "string escapes survive" `Quick
          test_roundtrip_string_escapes;
        Alcotest.test_case "garbage rejected" `Quick test_parse_rejects_garbage;
        Alcotest.test_case "null sink inert" `Quick
          test_null_sink_counts_nothing ] );
    ( "events.registry",
      [ Alcotest.test_case "counter semantics" `Quick test_registry_semantics;
        Alcotest.test_case "snapshot event" `Quick
          test_registry_snapshot_event ] );
    ( "events.differential",
      [ Alcotest.test_case "run: on = off, final window = totals" `Quick
          test_differential_run;
        Alcotest.test_case "run_many: multiplexed lanes reconcile" `Quick
          test_differential_run_many;
        Alcotest.test_case "run_stream: on = off, no hits mid-pass" `Quick
          test_differential_stream;
        Alcotest.test_case "hits + noise = captured" `Quick
          test_hits_noise_partition_captured;
        Alcotest.test_case "null sink is free" `Quick
          test_null_sink_events_are_free;
        Alcotest.test_case "short trace: one final sample" `Quick
          test_short_trace_still_samples_once;
        Alcotest.test_case "window validation" `Quick
          test_events_window_validation ] ) ]
