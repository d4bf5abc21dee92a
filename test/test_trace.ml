(* Tests for path signatures, the path definition, and the trace recorder. *)

module Cfg = Hotpath_cfg.Cfg
module Behavior = Hotpath_vm.Behavior
module Signature = Hotpath_trace.Signature
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Recorder = Hotpath_trace.Recorder
module Prng = Hotpath_util.Prng

let record ?max_steps ?max_paths ?(seed = 99) program behavior =
  Recorder.record ?max_steps ?max_paths program behavior ~rng:(Prng.create ~seed)

(* ------------------------------------------------------------------ *)
(* Signature                                                           *)
(* ------------------------------------------------------------------ *)

let test_signature_build () =
  let b = Signature.Builder.create ~head:5 in
  Signature.Builder.add_branch b ~taken:false;
  Signature.Builder.add_branch b ~taken:true;
  Signature.Builder.add_branch b ~taken:false;
  Signature.Builder.add_branch b ~taken:true;
  let s = Signature.Builder.freeze b in
  Alcotest.(check int) "head" 5 (Signature.head s);
  Alcotest.(check int) "length" 4 (Signature.length s);
  Alcotest.(check bool) "bit0" false (Signature.bit s 0);
  Alcotest.(check bool) "bit1" true (Signature.bit s 1);
  Alcotest.(check bool) "bit3" true (Signature.bit s 3);
  Alcotest.(check string) "printed like the paper" "B5.0101" (Signature.to_string s)

let test_signature_indirect () =
  let b = Signature.Builder.create ~head:1 in
  Signature.Builder.add_branch b ~taken:true;
  Signature.Builder.add_indirect b ~target:9;
  Signature.Builder.add_indirect b ~target:4;
  let s = Signature.Builder.freeze b in
  Alcotest.(check (list int)) "targets in order" [ 9; 4 ] (Signature.indirect_targets s);
  Alcotest.(check string) "printed" "B1.1,[B9;B4]" (Signature.to_string s)

let test_signature_equal_hash () =
  let make () =
    let b = Signature.Builder.create ~head:2 in
    Signature.Builder.add_branch b ~taken:true;
    Signature.Builder.add_branch b ~taken:false;
    Signature.Builder.add_indirect b ~target:7;
    Signature.Builder.freeze b
  in
  let s1 = make () and s2 = make () in
  Alcotest.(check bool) "equal" true (Signature.equal s1 s2);
  Alcotest.(check int) "same hash" (Signature.hash s1) (Signature.hash s2);
  Alcotest.(check int) "compare 0" 0 (Signature.compare s1 s2)

let test_signature_distinguishes () =
  let base () = Signature.Builder.create ~head:2 in
  let s_taken =
    let b = base () in
    Signature.Builder.add_branch b ~taken:true;
    Signature.Builder.freeze b
  and s_not =
    let b = base () in
    Signature.Builder.add_branch b ~taken:false;
    Signature.Builder.freeze b
  and s_longer =
    let b = base () in
    Signature.Builder.add_branch b ~taken:true;
    Signature.Builder.add_branch b ~taken:false;
    Signature.Builder.freeze b
  and s_other_head =
    let b = Signature.Builder.create ~head:3 in
    Signature.Builder.add_branch b ~taken:true;
    Signature.Builder.freeze b
  in
  Alcotest.(check bool) "outcome differs" false (Signature.equal s_taken s_not);
  Alcotest.(check bool) "length differs" false (Signature.equal s_taken s_longer);
  Alcotest.(check bool) "head differs" false (Signature.equal s_taken s_other_head)

let test_signature_cap () =
  let b = Signature.Builder.create ~head:0 in
  for _ = 1 to Signature.max_branches do
    Signature.Builder.add_branch b ~taken:true
  done;
  Alcotest.check_raises "cap enforced"
    (Invalid_argument "Signature.Builder.add_branch: path branch cap exceeded")
    (fun () -> Signature.Builder.add_branch b ~taken:true)

let test_signature_reset () =
  let b = Signature.Builder.create ~head:0 in
  Signature.Builder.add_branch b ~taken:true;
  Signature.Builder.add_indirect b ~target:3;
  Signature.Builder.reset b ~head:8;
  let s = Signature.Builder.freeze b in
  Alcotest.(check int) "head" 8 (Signature.head s);
  Alcotest.(check int) "empty" 0 (Signature.length s);
  Alcotest.(check (list int)) "no indirects" [] (Signature.indirect_targets s)

let prop_signature_roundtrip =
  QCheck.Test.make ~name:"signature bits round-trip" ~count:300
    QCheck.(pair small_nat (list_of_size Gen.(0 -- 40) bool))
    (fun (head, outcomes) ->
       let b = Signature.Builder.create ~head in
       List.iter (fun taken -> Signature.Builder.add_branch b ~taken) outcomes;
       let s = Signature.Builder.freeze b in
       Signature.head s = head
       && Signature.length s = List.length outcomes
       && List.for_all2
            (fun i taken -> Signature.bit s i = taken)
            (List.init (List.length outcomes) Fun.id)
            outcomes)

(* ------------------------------------------------------------------ *)
(* Recorder: simple loop                                               *)
(* ------------------------------------------------------------------ *)

let test_simple_loop_paths () =
  let program, behavior, (b0, b1, b2, b3) = Fixtures.simple_loop ~iterations:5 () in
  let r = record program behavior in
  (* Entry path, 3x loop-body path, exit path. *)
  Alcotest.(check int) "instances" 5 (Recorder.num_instances r);
  Alcotest.(check int) "distinct paths" 3 (Recorder.num_paths r);
  let p0 = Recorder.instance_path r 0 in
  Alcotest.(check (array int)) "entry path blocks" [| b0; b1; b2 |] p0.Path.blocks;
  Alcotest.(check int) "entry path instrs" 10 p0.Path.n_instrs;
  Alcotest.(check bool) "entry ends backward" true
    (p0.Path.end_kind = Path.Backward_transfer);
  let p1 = Recorder.instance_path r 1 in
  Alcotest.(check (array int)) "loop path blocks" [| b1; b2 |] p1.Path.blocks;
  Alcotest.(check string) "loop path signature" (Printf.sprintf "B%d.1" b1)
    (Signature.to_string p1.Path.signature);
  let plast = Recorder.instance_path r 4 in
  Alcotest.(check (array int)) "exit path blocks" [| b1; b2; b3 |] plast.Path.blocks;
  Alcotest.(check bool) "exit path end" true (plast.Path.end_kind = Path.Program_end)

let test_simple_loop_arrivals () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:5 () in
  let r = record program behavior in
  Alcotest.(check bool) "first is entry" true (Recorder.arrival r 0 = Path.Entry);
  for i = 1 to 4 do
    Alcotest.(check bool) "later are loop heads" true
      (Recorder.arrival r i = Path.Loop_head)
  done

let test_simple_loop_frequencies () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:5 () in
  let r = record program behavior in
  let freq = Recorder.frequencies r in
  Array.sort compare freq;
  Alcotest.(check (array int)) "frequencies" [| 1; 1; 3 |] freq;
  Alcotest.(check int) "loop heads" 1 (Recorder.unique_loop_heads r)

let test_head_arrival_counts () =
  let program, behavior, (_, b1, _, _) = Fixtures.simple_loop ~iterations:5 () in
  let r = record program behavior in
  let counts = Recorder.head_arrival_counts r in
  Alcotest.(check (option int)) "b1 counted 4 times" (Some 4)
    (Hashtbl.find_opt counts b1)

(* ------------------------------------------------------------------ *)
(* Recorder: calls and returns                                         *)
(* ------------------------------------------------------------------ *)

let test_call_loop_paths () =
  let program, behavior, (b0, b1, b2, b3, b4, b5, b6) =
    Fixtures.call_loop ~iterations:2 ()
  in
  let r = record program behavior in
  Alcotest.(check int) "instances" 4 (Recorder.num_instances r);
  (* 1: entry path crosses the call and ends at the matched return. *)
  let p0 = Recorder.instance_path r 0 in
  Alcotest.(check (array int)) "entry path" [| b0; b1; b2; b3; b4 |] p0.Path.blocks;
  Alcotest.(check bool) "ends at matched return" true
    (p0.Path.end_kind = Path.Matched_return);
  (* 2: continuation at the return-to block, ends at the back edge. *)
  let p1 = Recorder.instance_path r 1 in
  Alcotest.(check (array int)) "continuation path" [| b5 |] p1.Path.blocks;
  Alcotest.(check bool) "continuation arrival" true
    (Recorder.arrival r 1 = Path.Continuation);
  Alcotest.(check bool) "ends backward" true (p1.Path.end_kind = Path.Backward_transfer);
  (* 3: loop-head path through the call again. *)
  let p2 = Recorder.instance_path r 2 in
  Alcotest.(check (array int)) "loop path" [| b1; b2; b3; b4 |] p2.Path.blocks;
  Alcotest.(check bool) "loop-head arrival" true (Recorder.arrival r 2 = Path.Loop_head);
  (* 4: final continuation falls through to exit. *)
  let p3 = Recorder.instance_path r 3 in
  Alcotest.(check (array int)) "exit path" [| b5; b6 |] p3.Path.blocks;
  Alcotest.(check bool) "program end" true (p3.Path.end_kind = Path.Program_end)

let test_path_extends_across_forward_return () =
  (* A path starting inside the callee extends across the (forward,
     unmatched) return: force the helper to contain a loop so a path head
     appears inside it. *)
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
  let r = record program behavior in
  (* Paths: [b0;b1;b2] ends backward; [b1;b2] loop head...; the last loop
     path [b1;b2;b3] crosses the return into [b4;b5]: the return is forward
     (3 -> 4) and NOT matched (the call happened on the first path), so the
     path continues across it and ends at program exit. *)
  let last = Recorder.instance_path r (Recorder.num_instances r - 1) in
  Alcotest.(check (array int)) "crosses unmatched forward return"
    [| b1; b2; b3; b4; b5 |] last.Path.blocks

let test_recursive_backward_call_heads () =
  let program, behavior, (_, _, b2, _, _, _) = Fixtures.recursive ~depth:3 () in
  let r = record ~max_steps:200 program behavior in
  (* The backward recursive call makes the callee entry a loop head. *)
  let has_loop_head_at_entry = ref false in
  for i = 0 to Recorder.num_instances r - 1 do
    if
      Recorder.arrival r i = Path.Loop_head
      && Path.head (Recorder.instance_path r i) = b2
    then has_loop_head_at_entry := true
  done;
  Alcotest.(check bool) "recursive entry is a loop head" true !has_loop_head_at_entry

(* ------------------------------------------------------------------ *)
(* Recorder: indirect branches, cap, fuel, invariants                  *)
(* ------------------------------------------------------------------ *)

let test_indirect_in_signature () =
  let program, behavior, (_, _, _, b3, b4, _, _) =
    Fixtures.indirect_loop ~weights:[| 0.5; 0.5 |] ~exit_prob:0.3 ()
  in
  let r = record ~max_steps:2000 program behavior in
  let saw_indirect = ref false in
  Path_table.iter
    (fun p ->
       match Signature.indirect_targets p.Path.signature with
       | [] -> ()
       | targets ->
         saw_indirect := true;
         List.iter
           (fun t ->
              Alcotest.(check bool) "target is b3 or b4" true (t = b3 || t = b4))
           targets)
    r.Recorder.table;
  Alcotest.(check bool) "indirect targets recorded" true !saw_indirect

let test_cap_path () =
  (* A long forward chain of branches with no backward edge: the path must
     end at the cap and continue with a Continuation head. *)
  let n = Signature.max_branches + 20 in
  let b = Cfg.Builder.create ~name:"long_chain" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let ids = Array.init (n + 1) (fun _ -> Cfg.Builder.add_block b ~proc:p ~weight:1) in
  for i = 0 to n - 1 do
    Cfg.Builder.set_term b ids.(i)
      (Cfg.Branch { taken = ids.(i + 1); fallthrough = ids.(i + 1) })
  done;
  Cfg.Builder.set_term b ids.(n) Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let behavior = Behavior.create program () in
  let r = record program behavior in
  Alcotest.(check int) "two paths" 2 (Recorder.num_instances r);
  let first = Recorder.instance_path r 0 in
  Alcotest.(check bool) "first capped" true (first.Path.end_kind = Path.Cap);
  Alcotest.(check int) "cap length" Signature.max_branches first.Path.n_branches;
  Alcotest.(check bool) "second is continuation" true
    (Recorder.arrival r 1 = Path.Continuation)

let test_fuel_drops_partial () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:1_000_000 () in
  (* 8 executed blocks: b0 b1 b2 | b1 b2 | b1 b2 | b1(partial).  The
     truncated partial is discarded — it is not a completed path and could
     collide with a completed one — so 7 blocks are recorded. *)
  let r = record ~max_steps:8 program behavior in
  Alcotest.(check int) "completed paths only" 7
    (List.length (Recorder.block_trace r));
  Alcotest.(check int) "three instances" 3 (Recorder.num_instances r);
  (* Natural program exit completes the in-flight path instead. *)
  let program', behavior', _ = Fixtures.simple_loop ~iterations:3 () in
  let r' = record program' behavior' in
  let last = Recorder.instance_path r' (Recorder.num_instances r' - 1) in
  Alcotest.(check bool) "exit path recorded as program end" true
    (last.Path.end_kind = Path.Program_end)

let test_max_paths_stops () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:1_000_000 () in
  let r = record ~max_paths:10 program behavior in
  Alcotest.(check int) "stopped at max paths" 10 (Recorder.num_instances r)

let test_block_trace_partition () =
  (* Concatenating recorded paths' blocks reproduces the executed block
     sequence exactly (checked against a fresh VM run with the same seed). *)
  let program, behavior, _ = Fixtures.indirect_loop ~exit_prob:0.1 () in
  let r = record ~max_steps:500 ~seed:7 program behavior in
  let vm =
    Hotpath_vm.Vm.create program behavior ~rng:(Prng.create ~seed:7)
  in
  let blocks = ref [] in
  let _ =
    Hotpath_vm.Vm.run ~max_steps:500 vm ~on_transfer:(fun vm ->
        blocks := (Hotpath_vm.Vm.cursor vm).Hotpath_vm.Vm.src :: !blocks)
  in
  Alcotest.(check (list int)) "partition invariant" (List.rev !blocks)
    (Recorder.block_trace r)

let test_recorder_determinism () =
  let program, behavior, _ = Fixtures.indirect_loop ~exit_prob:0.05 () in
  let r1 = record ~max_steps:2000 ~seed:3 program behavior in
  let r2 = record ~max_steps:2000 ~seed:3 program behavior in
  Alcotest.(check (array int)) "same instance sequence" r1.Recorder.instances
    r2.Recorder.instances

(* ------------------------------------------------------------------ *)
(* Path_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_path_table_interning () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:50 () in
  let r = record program behavior in
  let table = r.Recorder.table in
  Alcotest.(check int) "3 paths for 50 iterations" 3 (Path_table.size table);
  Path_table.iter
    (fun p ->
       Alcotest.(check bool) "find by signature" true
         (Path_table.find table p.Path.signature = Some p.Path.id))
    table;
  Alcotest.check_raises "unknown id" (Invalid_argument "Path_table.path: unknown id 99")
    (fun () -> ignore (Path_table.path table 99))

let test_path_table_hash_collision () =
  (* [B1.,[B5;B40]] and [B1.,[B6;B9]] share a hash: (h*31+5)*31+40 =
     (h*31+6)*31+9.  The index must tell them apart by the full key, both
     probing from a live builder and interning a frozen signature. *)
  let builder targets =
    let b = Signature.Builder.create ~head:1 in
    List.iter (fun target -> Signature.Builder.add_indirect b ~target) targets;
    b
  in
  let b1 = builder [ 5; 40 ] and b2 = builder [ 6; 9 ] in
  Alcotest.(check int) "colliding hashes" (Signature.Builder.hash b1)
    (Signature.Builder.hash b2);
  let table = Path_table.create () in
  let blocks = [| 1; 2 |] in
  let intern b =
    Path_table.intern_builder table b ~blocks ~n_blocks:2 ~n_instrs:2
      ~end_kind:Path.Backward_transfer
  in
  let id1 = intern b1 and id2 = intern b2 in
  Alcotest.(check (pair int int)) "distinct ids" (0, 1) (id1, id2);
  Alcotest.(check (pair int int)) "hits find their own path" (0, 1) (intern b1, intern b2);
  let s2 = Signature.Builder.freeze b2 in
  Alcotest.(check (option int)) "find by frozen signature" (Some 1)
    (Path_table.find table s2);
  Alcotest.(check int) "frozen intern hits" 1
    (Path_table.intern table s2 ~blocks ~n_instrs:2 ~n_branches:0
       ~end_kind:Path.Backward_transfer);
  let b3 = builder [ 7; -22 ] in
  Alcotest.(check int) "a third collider" (Signature.Builder.hash b1)
    (Signature.Builder.hash b3);
  Alcotest.(check (option int)) "absent collider not found" None
    (Path_table.find table (Signature.Builder.freeze b3));
  (* Growth rehashes every slot: ids survive a resize. *)
  for head = 100 to 3_000 do
    ignore
      (Path_table.intern_builder table (Signature.Builder.create ~head) ~blocks:[| head |]
         ~n_blocks:1 ~n_instrs:1 ~end_kind:Path.Backward_transfer)
  done;
  Alcotest.(check (option int)) "found after growth" (Some 1) (Path_table.find table s2);
  Alcotest.(check (option int)) "last path found" (Some (Path_table.size table - 1))
    (Path_table.find table (Signature.Builder.freeze (Signature.Builder.create ~head:3_000)))

let test_path_divergence () =
  let mk blocks =
    let b = Signature.Builder.create ~head:blocks.(0) in
    {
      Path.id = 0;
      signature = Signature.Builder.freeze b;
      blocks;
      n_instrs = Array.length blocks;
      n_branches = 0;
      end_kind = Path.Backward_transfer;
    }
  in
  let p1 = mk [| 1; 2; 3; 4 |] and p2 = mk [| 1; 2; 9; 4 |] and p3 = mk [| 1; 2 |] in
  Alcotest.(check (option int)) "diverges at 2" (Some 2) (Path.divergence p1 p2);
  Alcotest.(check (option int)) "prefix" None (Path.divergence p1 p3);
  Alcotest.(check (option int)) "equal" None (Path.divergence p1 p1)

let test_unique_heads () =
  let program, behavior, _ = Fixtures.call_loop ~iterations:3 () in
  let r = record program behavior in
  let heads = Path_table.unique_heads r.Recorder.table in
  Alcotest.(check bool) "sorted ascending" true
    (List.sort Int.compare heads = heads);
  Alcotest.(check bool) "at least entry + loop + continuation heads" true
    (List.length heads >= 3)

let suites =
  [
    ( "trace.signature",
      [
        Alcotest.test_case "build" `Quick test_signature_build;
        Alcotest.test_case "indirect" `Quick test_signature_indirect;
        Alcotest.test_case "equal/hash" `Quick test_signature_equal_hash;
        Alcotest.test_case "distinguishes" `Quick test_signature_distinguishes;
        Alcotest.test_case "cap" `Quick test_signature_cap;
        Alcotest.test_case "reset" `Quick test_signature_reset;
        QCheck_alcotest.to_alcotest prop_signature_roundtrip;
      ] );
    ( "trace.recorder",
      [
        Alcotest.test_case "simple loop paths" `Quick test_simple_loop_paths;
        Alcotest.test_case "simple loop arrivals" `Quick test_simple_loop_arrivals;
        Alcotest.test_case "simple loop frequencies" `Quick test_simple_loop_frequencies;
        Alcotest.test_case "head arrival counts" `Quick test_head_arrival_counts;
        Alcotest.test_case "call loop paths" `Quick test_call_loop_paths;
        Alcotest.test_case "crosses forward return" `Quick
          test_path_extends_across_forward_return;
        Alcotest.test_case "recursive backward call" `Quick
          test_recursive_backward_call_heads;
        Alcotest.test_case "indirect in signature" `Quick test_indirect_in_signature;
        Alcotest.test_case "cap path" `Quick test_cap_path;
        Alcotest.test_case "fuel drops partial" `Quick test_fuel_drops_partial;
        Alcotest.test_case "max paths stops" `Quick test_max_paths_stops;
        Alcotest.test_case "block trace partition" `Quick test_block_trace_partition;
        Alcotest.test_case "determinism" `Quick test_recorder_determinism;
      ] );
    ( "trace.path_table",
      [
        Alcotest.test_case "interning" `Quick test_path_table_interning;
        Alcotest.test_case "hash collisions compare the full key" `Quick
          test_path_table_hash_collision;
        Alcotest.test_case "divergence" `Quick test_path_divergence;
        Alcotest.test_case "unique heads" `Quick test_unique_heads;
      ] );
  ]
