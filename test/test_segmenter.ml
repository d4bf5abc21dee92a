(* Direct tests for the streaming path segmenter (shared by the recorder
   and the live Dynamo driver), plus coverage for the VM's remaining
   behaviour models. *)

module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Behavior = Hotpath_vm.Behavior
module Segmenter = Hotpath_trace.Segmenter
module Signature = Hotpath_trace.Signature
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Prng = Hotpath_util.Prng

(* Every completed path, in order, with its arrival kind. *)
let drive program behavior ~seed ~max_steps =
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed) in
  let table = Path_table.create () in
  let seg = Segmenter.create program table in
  let completed = ref [] in
  let _ =
    Segmenter.run ~max_steps seg vm ~on_path:(fun id arrival ->
        completed := (Path_table.path table id, arrival) :: !completed)
  in
  (List.rev !completed, seg)

let test_simple_loop_stream () =
  let program, behavior, (b0, b1, b2, b3) = Fixtures.simple_loop ~iterations:3 () in
  let completed, _ = drive program behavior ~seed:1 ~max_steps:1000 in
  Alcotest.(check int) "three paths" 3 (List.length completed);
  (match completed with
   | [ (p1, a1); (p2, a2); (p3, _) ] ->
     Alcotest.(check (array int)) "entry" [| b0; b1; b2 |] p1.Path.blocks;
     Alcotest.(check bool) "entry arrival" true (a1 = Path.Entry);
     Alcotest.(check (array int)) "loop" [| b1; b2 |] p2.Path.blocks;
     Alcotest.(check bool) "loop-head arrival" true (a2 = Path.Loop_head);
     Alcotest.(check (array int)) "exit" [| b1; b2; b3 |] p3.Path.blocks;
     Alcotest.(check bool) "program end" true
       (p3.Path.end_kind = Path.Program_end)
   | _ -> Alcotest.fail "unexpected stream")

let test_instrs_and_branches_consistent () =
  let program, behavior, _ = Fixtures.indirect_loop ~exit_prob:0.05 () in
  let completed, _ = drive program behavior ~seed:5 ~max_steps:5_000 in
  List.iter
    (fun (p, _) ->
       let weight_sum =
         Array.fold_left
           (fun acc b -> acc + (Cfg.block program b).Cfg.weight)
           0 p.Path.blocks
       in
       Alcotest.(check int) "instrs = block weights" weight_sum p.Path.n_instrs;
       Alcotest.(check int) "branches = signature length"
         (Signature.length p.Path.signature)
         p.Path.n_branches)
    completed

let test_in_flight_blocks () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:1_000 () in
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed:1) in
  let seg = Segmenter.create program (Path_table.create ()) in
  Alcotest.(check int) "starts with the entry block" 1
    (Segmenter.in_flight_blocks seg);
  if Segmenter.run ~max_steps:1 seg vm ~on_path:(fun _ _ -> ()) <> `Fuel then
    Alcotest.fail "vm ended early";
  Alcotest.(check int) "grew" 2 (Segmenter.in_flight_blocks seg)

let test_feed_after_exit_rejected () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:2 () in
  let fresh_vm () = Vm.create program behavior ~rng:(Prng.create ~seed:1) in
  let seg = Segmenter.create program (Path_table.create ()) in
  let no_path _ _ = () in
  Alcotest.(check bool) "exited" true
    (Segmenter.run seg (fresh_vm ()) ~on_path:no_path = `Exited);
  Alcotest.(check int) "nothing in flight" 0 (Segmenter.in_flight_blocks seg);
  Alcotest.check_raises "feed after exit"
    (Invalid_argument "Segmenter.run: program already exited") (fun () ->
      ignore (Segmenter.run seg (fresh_vm ()) ~on_path:no_path))

let test_crossed_return_target_in_signature () =
  (* Same shape as the recorder test: the path crossing the unmatched
     forward return carries the return target as an indirect entry. *)
  let b = Cfg.Builder.create ~name:"callee_loop" in
  let main = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let helper = Cfg.Builder.add_proc b ~name:"helper" in
  let b1 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b3 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b4 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let b5 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Call { callee = helper; return_to = b4 });
  Cfg.Builder.set_term b b1 (Cfg.Jump b2);
  Cfg.Builder.set_term b b2 (Cfg.Branch { taken = b1; fallthrough = b3 });
  Cfg.Builder.set_term b b3 Cfg.Return;
  Cfg.Builder.set_term b b4 (Cfg.Jump b5);
  Cfg.Builder.set_term b b5 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let behavior = Behavior.create program () in
  Behavior.set_branch behavior b2 (Behavior.Periodic [| true; false |]);
  let completed, _ = drive program behavior ~seed:1 ~max_steps:1_000 in
  let last, _ = List.nth completed (List.length completed - 1) in
  Alcotest.(check (array int)) "crosses the return" [| b1; b2; b3; b4; b5 |]
    last.Path.blocks;
  Alcotest.(check (list int)) "return target recorded as indirect" [ b4 ]
    (Signature.indirect_targets last.Path.signature)

(* ------------------------------------------------------------------ *)
(* Remaining VM behaviour models                                       *)
(* ------------------------------------------------------------------ *)

let test_phased_indirect_target () =
  (* Indirect dispatch favouring target 0 before step 200, target 1 after. *)
  let program, behavior, (_, _, b2, b3, b4, _, _) =
    Fixtures.indirect_loop ~exit_prob:0.001 ()
  in
  Behavior.set_indirect behavior b2
    (Behavior.Phased_target
       [| (200, [| 1.0; 0.0 |]); (max_int, [| 0.0; 1.0 |]) |]);
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed:9) in
  let early = ref [] and late = ref [] in
  let steps = ref 0 in
  let _ =
    Vm.run ~max_steps:2_000 vm ~on_transfer:(fun vm ->
        incr steps;
        let c = Vm.cursor vm in
        if c.Vm.kind = Vm.T_indirect then
          if !steps < 200 then early := c.Vm.dst :: !early
          else if !steps > 220 then late := c.Vm.dst :: !late)
  in
  Alcotest.(check bool) "early phase hits target 0" true
    (List.for_all (fun d -> d = b3) !early && !early <> []);
  Alcotest.(check bool) "late phase hits target 1" true
    (List.for_all (fun d -> d = b4) !late && !late <> [])

let test_always_false_branch () =
  let program, behavior, (_, _, b2, _) = Fixtures.simple_loop () in
  Behavior.set_branch behavior b2 (Behavior.Always false);
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed:1) in
  let stats = Vm.run ~max_steps:100 vm ~on_transfer:ignore in
  (* Loop never taken: b0 b1 b2 b3 = 4 blocks. *)
  Alcotest.(check int) "immediate exit" 4 stats.Vm.blocks

let suites =
  [
    ( "trace.segmenter",
      [
        Alcotest.test_case "simple loop stream" `Quick test_simple_loop_stream;
        Alcotest.test_case "instrs/branches consistent" `Quick
          test_instrs_and_branches_consistent;
        Alcotest.test_case "in-flight blocks" `Quick test_in_flight_blocks;
        Alcotest.test_case "feed after exit" `Quick test_feed_after_exit_rejected;
        Alcotest.test_case "crossed return in signature" `Quick
          test_crossed_return_target_in_signature;
      ] );
    ( "vm.models",
      [
        Alcotest.test_case "phased indirect target" `Quick test_phased_indirect_target;
        Alcotest.test_case "always-false branch" `Quick test_always_false_branch;
      ] );
  ]
