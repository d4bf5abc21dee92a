(* Tests for the workload generator, the Figure 1 fixture, and the
   benchmark suite. *)

module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Behavior = Hotpath_vm.Behavior
module Signature = Hotpath_trace.Signature
module Path = Hotpath_trace.Path
module Recorder = Hotpath_trace.Recorder
module Generator = Hotpath_workloads.Generator
module Figure1 = Hotpath_workloads.Figure1
module Suite = Hotpath_workloads.Suite
module Prng = Hotpath_util.Prng

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let tiny_spec ?(phase_steps = None) ?(loops = [ (2, Generator.loop ~branches:3 ()) ])
    ?(procs = 1) () =
  { Generator.g_name = "tiny"; g_loops = loops; g_procs = procs;
    g_phase_steps = phase_steps }

let test_generator_builds_valid_program () =
  let program, behavior = Generator.build (tiny_spec ()) ~seed:1 in
  Alcotest.(check bool) "program valid" true (Cfg.validate program = Ok ());
  Alcotest.(check bool) "behavior valid" true (Behavior.validate behavior = Ok ())

let test_generator_deterministic () =
  let p1, _ = Generator.build (tiny_spec ()) ~seed:42 in
  let p2, _ = Generator.build (tiny_spec ()) ~seed:42 in
  Alcotest.(check int) "same block count" (Array.length p1.Cfg.blocks)
    (Array.length p2.Cfg.blocks);
  Array.iter2
    (fun (a : Cfg.block) (b : Cfg.block) ->
       Alcotest.(check int) "same weight" a.Cfg.weight b.Cfg.weight)
    p1.Cfg.blocks p2.Cfg.blocks

let test_generator_seed_sensitivity () =
  let p1, _ = Generator.build (tiny_spec ()) ~seed:1 in
  let p2, _ = Generator.build (tiny_spec ()) ~seed:2 in
  let weights p = Array.map (fun b -> b.Cfg.weight) p.Cfg.blocks in
  Alcotest.(check bool) "different weights" false (weights p1 = weights p2)

let test_generator_validate_errors () =
  let bad name spec =
    match Generator.validate spec with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: expected validation failure" name
  in
  bad "no loops" (tiny_spec ~loops:[] ());
  bad "zero procs" { (tiny_spec ()) with Generator.g_procs = 0 };
  bad "bad count" (tiny_spec ~loops:[ (0, Generator.loop ~branches:1 ()) ] ());
  bad "branches cap"
    (tiny_spec ~loops:[ (1, Generator.loop ~branches:17 ()) ] ());
  bad "bad bias" (tiny_spec ~loops:[ (1, Generator.loop ~bias:1.5 ~branches:1 ()) ] ());
  bad "bad loopback"
    (tiny_spec ~loops:[ (1, Generator.loop ~loopback:1.5 ~branches:1 ()) ] ());
  bad "bad fire period"
    (tiny_spec ~loops:[ (1, Generator.loop ~fire_period:1 ~branches:1 ()) ] ());
  bad "indirect fanout 1"
    (tiny_spec ~loops:[ (1, Generator.loop ~indirect:1 ~branches:1 ()) ] ());
  bad "bad phase steps" (tiny_spec ~phase_steps:(Some 0) ())

let test_generator_total_loops () =
  let spec =
    tiny_spec
      ~loops:[ (3, Generator.loop ~branches:1 ()); (2, Generator.micro_loop ()) ]
      ()
  in
  Alcotest.(check int) "total" 5 (Generator.total_loops spec)

let test_generator_runs_endlessly_until_fuel () =
  let program, behavior = Generator.build (tiny_spec ()) ~seed:7 in
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed:9) in
  let stats = Vm.run ~max_steps:5_000 vm ~on_transfer:ignore in
  Alcotest.(check bool) "driver loop is endless" true (stats.Vm.reason = `Fuel)

let test_generator_micro_loop_periodicity () =
  (* A single micro loop with fire period k: its latch takes the back edge
     exactly every k-th execution. *)
  let spec =
    tiny_spec ~loops:[ (1, Generator.micro_loop ~fire_period:4 ()) ] ()
  in
  let program, behavior = Generator.build spec ~seed:3 in
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed:3) in
  let backward_branches = ref 0 and total_branches = ref 0 in
  let _ =
    Vm.run ~max_steps:4_000 vm ~on_transfer:(fun vm ->
        let c = Vm.cursor vm in
        if c.Vm.kind = Vm.T_branch && (Cfg.block program c.Vm.src).Cfg.proc <> 0 then begin
          incr total_branches;
          if c.Vm.backward then incr backward_branches
        end)
  in
  (* The pattern fires on every 4th latch execution regardless of visit
     boundaries: rate = 1/4 exactly (up to edge effects). *)
  let rate = float_of_int !backward_branches /. float_of_int !total_branches in
  Alcotest.(check bool)
    (Printf.sprintf "fire rate %.3f near 0.25" rate)
    true
    (abs_float (rate -. 0.25) < 0.02)

let test_generator_calls_and_indirects_present () =
  let spec =
    tiny_spec
      ~loops:[ (2, Generator.loop ~branches:2 ~calls:true ~indirect:4 ()) ]
      ()
  in
  let program, _ = Generator.build spec ~seed:5 in
  let has_indirect =
    Array.exists
      (fun b -> match b.Cfg.term with Cfg.Indirect _ -> true | _ -> false)
      program.Cfg.blocks
  and calls =
    Array.to_list program.Cfg.blocks
    |> List.filter_map (fun b ->
        match b.Cfg.term with Cfg.Call { callee; _ } -> Some callee | _ -> None)
  in
  Alcotest.(check bool) "indirect dispatch present" true has_indirect;
  (* Two loop-body helper calls plus the driver's worker call. *)
  Alcotest.(check int) "call sites" 3 (List.length calls)

let test_generator_phase_flip_changes_behavior () =
  (* One loop with phase-flipped diamonds; compare the dominant direction
     of its first diamond across the phase boundary. *)
  let spec =
    tiny_spec
      ~loops:[ (1, Generator.loop ~branches:1 ~bias:0.95 ~iterations:1000 ~phase_flip:true ()) ]
      ~phase_steps:(Some 5_000) ()
  in
  let program, behavior = Generator.build spec ~seed:11 in
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed:13) in
  (* The diamond branch is the only non-latch conditional in worker procs
     with two successors differing from the head. Track taken-rate per
     phase via step counts. *)
  let taken_phase1 = ref 0 and n_phase1 = ref 0 in
  let taken_phase2 = ref 0 and n_phase2 = ref 0 in
  let steps = ref 0 in
  let diamond_src = ref None in
  let _ =
    Vm.run ~max_steps:20_000 vm ~on_transfer:(fun vm ->
        incr steps;
        let c = Vm.cursor vm in
        let taken = c.Vm.taken in
        match c.Vm.kind with
        | Vm.T_branch when not c.Vm.backward -> begin
            (* Identify the diamond branch: a forward conditional whose two
               targets differ (the latch's forward side exits the loop and
               is rare under iterations=1000). *)
            match !diamond_src with
            | None -> diamond_src := Some c.Vm.src
            | Some src when src = c.Vm.src ->
              if !steps < 5_000 then begin
                incr n_phase1;
                if taken then incr taken_phase1
              end
              else if !steps > 6_000 then begin
                incr n_phase2;
                if taken then incr taken_phase2
              end
            | Some _ -> ()
          end
        | _ -> ())
  in
  let rate1 = float_of_int !taken_phase1 /. float_of_int (max 1 !n_phase1)
  and rate2 = float_of_int !taken_phase2 /. float_of_int (max 1 !n_phase2) in
  Alcotest.(check bool)
    (Printf.sprintf "dominant direction flips (%.2f vs %.2f)" rate1 rate2)
    true
    (abs_float (rate1 -. rate2) > 0.5)

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let record_figure1 ?(config = Figure1.dominant) ?(max_paths = 2_000) ?(seed = 21) () =
  let program, behavior = Figure1.build ~config () in
  Recorder.record ~max_paths ~max_steps:200_000 program behavior
    ~rng:(Prng.create ~seed)

let test_figure1_signatures_match_paper () =
  let r = record_figure1 ~config:Figure1.flat () in
  let seen = Hashtbl.create 8 in
  Hotpath_trace.Path_table.iter
    (fun p ->
       if Path.head p = Figure1.block "A" && p.Path.end_kind = Path.Backward_transfer
       then Hashtbl.replace seen (Signature.to_string p.Path.signature) ())
    r.Recorder.table;
  List.iter
    (fun (path, _) ->
       let expected = Figure1.signature_of_blocks path in
       Alcotest.(check bool)
         (Printf.sprintf "%s (%s) observed" path expected)
         true (Hashtbl.mem seen expected))
    Figure1.paper_signatures

let test_figure1_dominant_config () =
  let r = record_figure1 ~config:Figure1.dominant () in
  let freq = Recorder.frequencies r in
  (* The hottest loop path must be ABDG. *)
  let best = ref (-1) and best_freq = ref 0 in
  Array.iteri
    (fun id f ->
       let p = Hotpath_trace.Path_table.path r.Recorder.table id in
       if Path.head p = Figure1.block "A" && f > !best_freq then begin
         best := id;
         best_freq := f
       end)
    freq;
  let hottest = Hotpath_trace.Path_table.path r.Recorder.table !best in
  Alcotest.(check string) "ABDG dominates"
    (Figure1.signature_of_blocks "ABDG")
    (Signature.to_string hottest.Path.signature)

let test_figure1_flat_config_spreads () =
  let r = record_figure1 ~config:Figure1.flat ~max_paths:5_000 () in
  let freq = Recorder.frequencies r in
  let loop_freqs =
    Array.to_list freq
    |> List.mapi (fun id f -> (id, f))
    |> List.filter (fun (id, _) ->
        let p = Hotpath_trace.Path_table.path r.Recorder.table id in
        Path.head p = Figure1.block "A" && p.Path.end_kind = Path.Backward_transfer)
    |> List.map snd
    |> List.sort compare
  in
  Alcotest.(check int) "five loop paths" 5 (List.length loop_freqs);
  (match (loop_freqs, List.rev loop_freqs) with
   | least :: _, most :: _ ->
     Alcotest.(check bool)
       (Printf.sprintf "spread within 4x (%d vs %d)" least most)
       true
       (most < 4 * max 1 least)
   | _ -> Alcotest.fail "unexpected")

let test_figure1_block_label_roundtrip () =
  List.iter
    (fun l -> Alcotest.(check string) "roundtrip" l (Figure1.label (Figure1.block l)))
    [ "A"; "B"; "J"; "K" ];
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Figure1.block: unknown label Z") (fun () ->
      ignore (Figure1.block "Z"))

let test_figure1_program_valid () =
  let program, behavior = Figure1.build () in
  Alcotest.(check bool) "valid" true (Cfg.validate program = Ok ());
  Alcotest.(check bool) "behavior valid" true (Behavior.validate behavior = Ok ())

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let test_suite_inventory () =
  Alcotest.(check int) "nine benchmarks" 9 (List.length Suite.all);
  Alcotest.(check (list string)) "paper order"
    [ "compress"; "gcc"; "go"; "ijpeg"; "li"; "m88ksim"; "perl"; "vortex";
      "deltablue" ]
    Suite.names;
  Alcotest.(check int) "dynamo subset" 5 (List.length Suite.dynamo_set);
  Alcotest.(check (list string)) "dynamo members"
    [ "compress"; "li"; "m88ksim"; "perl"; "deltablue" ]
    (List.map (fun b -> b.Suite.b_name) Suite.dynamo_set)

let test_suite_find () =
  Alcotest.(check bool) "find compress" true (Suite.find "compress" <> None);
  Alcotest.(check bool) "find nothing" true (Suite.find "nope" = None);
  Alcotest.check_raises "find_exn"
    (Invalid_argument "Suite.find_exn: unknown benchmark nope") (fun () ->
      ignore (Suite.find_exn "nope"))

let test_suite_specs_valid () =
  List.iter
    (fun b ->
       match Generator.validate b.Suite.b_spec with
       | Ok () -> ()
       | Error e -> Alcotest.failf "%s: %s" b.Suite.b_name e)
    Suite.all

let test_suite_record_scales () =
  let b = Suite.find_exn "compress" in
  let r = Suite.record ~scale:0.01 b in
  Alcotest.(check int) "records the requested flow"
    (int_of_float (0.01 *. float_of_int b.Suite.b_flow))
    (Recorder.num_instances r)

let test_suite_record_minimum () =
  let b = Suite.find_exn "compress" in
  let r = Suite.record ~scale:0.000001 b in
  Alcotest.(check int) "minimum 1000 instances" 1000 (Recorder.num_instances r)

let test_suite_hot_threshold () =
  Alcotest.(check (float 1e-12)) "0.1%" 0.001 Suite.hot_threshold

let test_suite_record_deterministic () =
  let b = Suite.find_exn "deltablue" in
  let r1 = Suite.record ~scale:0.01 b and r2 = Suite.record ~scale:0.01 b in
  Alcotest.(check (array int)) "same instances" r1.Recorder.instances
    r2.Recorder.instances

let suites =
  [
    ( "workloads.generator",
      [
        Alcotest.test_case "valid program" `Quick test_generator_builds_valid_program;
        Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_sensitivity;
        Alcotest.test_case "validation errors" `Quick test_generator_validate_errors;
        Alcotest.test_case "total loops" `Quick test_generator_total_loops;
        Alcotest.test_case "endless driver" `Quick test_generator_runs_endlessly_until_fuel;
        Alcotest.test_case "micro-loop periodicity" `Quick
          test_generator_micro_loop_periodicity;
        Alcotest.test_case "calls and indirects" `Quick
          test_generator_calls_and_indirects_present;
        Alcotest.test_case "phase flip" `Quick test_generator_phase_flip_changes_behavior;
      ] );
    ( "workloads.figure1",
      [
        Alcotest.test_case "paper signatures" `Quick test_figure1_signatures_match_paper;
        Alcotest.test_case "dominant config" `Quick test_figure1_dominant_config;
        Alcotest.test_case "flat config" `Quick test_figure1_flat_config_spreads;
        Alcotest.test_case "block/label roundtrip" `Quick
          test_figure1_block_label_roundtrip;
        Alcotest.test_case "program valid" `Quick test_figure1_program_valid;
      ] );
    ( "workloads.suite",
      [
        Alcotest.test_case "inventory" `Quick test_suite_inventory;
        Alcotest.test_case "find" `Quick test_suite_find;
        Alcotest.test_case "specs valid" `Quick test_suite_specs_valid;
        Alcotest.test_case "record scales" `Quick test_suite_record_scales;
        Alcotest.test_case "record minimum" `Quick test_suite_record_minimum;
        Alcotest.test_case "hot threshold" `Quick test_suite_hot_threshold;
        Alcotest.test_case "record deterministic" `Quick test_suite_record_deterministic;
      ] );
  ]
