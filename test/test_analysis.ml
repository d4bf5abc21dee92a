(* Tests for the static-analysis subsystem: dominators, natural loops,
   reducibility, static path-head sets and Ball–Larus bounds, and both
   linters (program well-formedness, trace-vs-program consistency).
   Every diagnostic code has at least one injection test that provokes
   exactly that defect. *)

module Cfg = Hotpath_cfg.Cfg
module Diag = Hotpath_analysis.Diag
module Procgraph = Hotpath_analysis.Procgraph
module Dominators = Hotpath_analysis.Dominators
module Loops = Hotpath_analysis.Loops
module Bounds = Hotpath_analysis.Bounds
module Lint = Hotpath_analysis.Lint
module Trace_lint = Hotpath_trace.Lint
module Check = Hotpath_trace.Check
module Recorder = Hotpath_trace.Recorder
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Signature = Hotpath_trace.Signature
module Ball_larus = Hotpath_profiling.Ball_larus
module Replay = Hotpath_prediction.Replay
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Generator = Hotpath_workloads.Generator
module Suite = Hotpath_workloads.Suite
module Prng = Hotpath_util.Prng

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

let codes diags =
  String.concat "," (List.map (fun d -> d.Diag.code) diags)

let check_has_code name code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s yields %s (got [%s])" name code (codes diags))
    true (has_code code diags)

(* ------------------------------------------------------------------ *)
(* Hand-built programs                                                 *)
(* ------------------------------------------------------------------ *)

(* 0: if, 1/2: arms, 3: loop branch back to 0, 4: exit. *)
let diamond_loop () =
  let b = Cfg.Builder.create ~name:"diamond" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b3 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b4 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Branch { taken = b2; fallthrough = b1 });
  Cfg.Builder.set_term b b1 (Cfg.Jump b3);
  Cfg.Builder.set_term b b2 (Cfg.Jump b3);
  Cfg.Builder.set_term b b3 (Cfg.Branch { taken = b0; fallthrough = b4 });
  Cfg.Builder.set_term b b4 Cfg.Exit;
  Cfg.Builder.finish b

(* 0: outer head, 1: inner head, 2: inner latch, 3: outer latch, 4: exit. *)
let nested_loops () =
  let b = Cfg.Builder.create ~name:"nested" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b3 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b4 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Jump b1);
  Cfg.Builder.set_term b b1 (Cfg.Branch { taken = b3; fallthrough = b2 });
  Cfg.Builder.set_term b b2 (Cfg.Jump b1);
  Cfg.Builder.set_term b b3 (Cfg.Branch { taken = b0; fallthrough = b4 });
  Cfg.Builder.set_term b b4 Cfg.Exit;
  Cfg.Builder.finish b

(* The cycle {1,2} is entered both at 1 (from 0's fallthrough) and at 2
   (from 0's taken edge): no unique header, so irreducible. *)
let irreducible () =
  let b = Cfg.Builder.create ~name:"irreducible" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b3 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Branch { taken = b2; fallthrough = b1 });
  Cfg.Builder.set_term b b1 (Cfg.Jump b2);
  Cfg.Builder.set_term b b2 (Cfg.Branch { taken = b1; fallthrough = b3 });
  Cfg.Builder.set_term b b3 Cfg.Exit;
  Cfg.Builder.finish b

let with_unreachable () =
  let b = Cfg.Builder.create ~name:"unreachable" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Jump b2);
  Cfg.Builder.set_term b b1 Cfg.Exit;
  Cfg.Builder.set_term b b2 Cfg.Exit;
  Cfg.Builder.finish b

let dom_of program = Dominators.compute (Procgraph.build program ~proc:0)

(* ------------------------------------------------------------------ *)
(* Dominators and loops                                                *)
(* ------------------------------------------------------------------ *)

let test_dominators_diamond () =
  let program = diamond_loop () in
  let dom = dom_of program in
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (fun b -> Dominators.dominates dom 0 b) [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check bool) "arm does not dominate join" false
    (Dominators.dominates dom 1 3);
  Alcotest.(check (option int)) "idom of join" (Some 0) (Dominators.idom dom 3);
  Alcotest.(check (option int)) "idom of exit" (Some 3) (Dominators.idom dom 4);
  Alcotest.(check (option int)) "entry has no idom" None (Dominators.idom dom 0)

let test_dominators_unreachable () =
  let program = with_unreachable () in
  let dom = dom_of program in
  Alcotest.(check (option int)) "unreachable idom" None (Dominators.idom dom 1);
  Alcotest.(check bool) "unreachable dominates nothing" false
    (Dominators.dominates dom 1 1);
  Alcotest.(check (list int)) "unreachable listed" [ 1 ]
    (Procgraph.unreachable_blocks (Dominators.graph dom))

let test_loops_diamond () =
  let program = diamond_loop () in
  let l = Loops.analyze (dom_of program) in
  Alcotest.(check int) "one loop" 1 (Loops.loop_count l);
  let loop = List.hd (Loops.loops l) in
  Alcotest.(check int) "head" 0 loop.Loops.head;
  Alcotest.(check (list (pair int int))) "back edges" [ (3, 0) ]
    loop.Loops.back_edges;
  Alcotest.(check (list int)) "body" [ 0; 1; 2; 3 ] loop.Loops.blocks;
  Alcotest.(check int) "exit outside" 0 (Loops.depth_of l 4);
  Alcotest.(check bool) "reducible" true (Loops.reducible l)

let test_loops_nested () =
  let program = nested_loops () in
  let l = Loops.analyze (dom_of program) in
  Alcotest.(check int) "two loops" 2 (Loops.loop_count l);
  Alcotest.(check int) "max depth" 2 (Loops.max_depth l);
  let outer = List.find (fun lo -> lo.Loops.head = 0) (Loops.loops l) in
  let inner = List.find (fun lo -> lo.Loops.head = 1) (Loops.loops l) in
  Alcotest.(check int) "outer depth" 1 outer.Loops.depth;
  Alcotest.(check int) "inner depth" 2 inner.Loops.depth;
  Alcotest.(check (option int)) "inner parent" (Some 0) inner.Loops.parent;
  Alcotest.(check (option int)) "outer has no parent" None outer.Loops.parent;
  Alcotest.(check (list int)) "inner body" [ 1; 2 ] inner.Loops.blocks;
  Alcotest.(check int) "latch depth" 2 (Loops.depth_of l 2)

let test_irreducible () =
  let program = irreducible () in
  let l = Loops.analyze (dom_of program) in
  Alcotest.(check bool) "irreducible" false (Loops.reducible l);
  Alcotest.(check bool) "witness edge" true (Loops.irreducible_edges l <> []);
  check_has_code "irreducible program" "P110" (Lint.check_program program)

(* ------------------------------------------------------------------ *)
(* Static bounds                                                       *)
(* ------------------------------------------------------------------ *)

let test_heads_diamond () =
  let program = diamond_loop () in
  let hs = Bounds.static_heads program in
  Alcotest.(check int) "paper heads" 1 (Bounds.paper_head_count hs);
  Alcotest.(check int) "full heads" 1 (Bounds.full_head_count hs);
  Alcotest.(check (list int)) "the loop head" [ 0 ] (Bounds.full_heads hs);
  Alcotest.(check int) "matches Cfg count"
    (Cfg.backward_branch_target_count program)
    (Bounds.paper_head_count hs)

(* A branch whose fallthrough goes backward: the arrival is a potential
   loop head at runtime but not a paper head (the paper counts backward
   {e taken} targets only).  The non-adjacent fallthrough also draws
   P108. *)
let test_full_vs_paper_heads () =
  let b = Cfg.Builder.create ~name:"backfall" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b3 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Jump b1);
  Cfg.Builder.set_term b b1 (Cfg.Jump b2);
  Cfg.Builder.set_term b b2 (Cfg.Branch { taken = b3; fallthrough = b1 });
  Cfg.Builder.set_term b b3 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let hs = Bounds.static_heads program in
  Alcotest.(check int) "no paper heads" 0 (Bounds.paper_head_count hs);
  Alcotest.(check (list int)) "backward fallthrough in full set" [ 1 ]
    (Bounds.full_heads hs);
  check_has_code "non-adjacent fallthrough" "P108" (Lint.check_program program)

let test_bl_paths_diamond () =
  let program = diamond_loop () in
  (* Pseudo edges split the loop: ENTRY->0, ENTRY->head 0 (deduped),
     3->EXIT, 4->EXIT; 4 acyclic paths 0..3, exactly Ball-Larus. *)
  (match Bounds.bl_paths program ~proc:0 with
   | Bounds.Exact n ->
     Alcotest.(check int) "static count" n
       (Ball_larus.num_paths (Ball_larus.analyze program ~proc:0))
   | Bounds.Overflow -> Alcotest.fail "unexpected overflow");
  Alcotest.(check bool) "total is exact" true
    (match Bounds.bl_total program with Bounds.Exact _ -> true | _ -> false)

let test_count_arithmetic () =
  let cap = 100 in
  Alcotest.(check bool) "add saturates" true
    (Bounds.count_add ~cap (Bounds.Exact 60) (Bounds.Exact 60) = Bounds.Overflow);
  Alcotest.(check bool) "add exact" true
    (Bounds.count_add ~cap (Bounds.Exact 60) (Bounds.Exact 30) = Bounds.Exact 90);
  Alcotest.(check bool) "overflow absorbs" true
    (Bounds.count_add ~cap Bounds.Overflow (Bounds.Exact 1) = Bounds.Overflow);
  Alcotest.(check bool) "le exact" true (Bounds.count_le (Bounds.Exact 3) (Bounds.Exact 4));
  Alcotest.(check bool) "le overflow top" true
    (Bounds.count_le (Bounds.Exact max_int) Bounds.Overflow);
  Alcotest.(check bool) "overflow above exact" false
    (Bounds.count_le Bounds.Overflow (Bounds.Exact max_int));
  Alcotest.(check string) "to_string overflow" ">2^50"
    (Bounds.count_to_string Bounds.Overflow)

let test_forward_walks_bound () =
  let program = diamond_loop () in
  match (Bounds.forward_walks program, Bounds.bl_total program) with
  | Bounds.Exact w, Bounds.Exact _ ->
    (* Every Ball-Larus path of main is a forward walk from some start. *)
    Alcotest.(check bool) "walks positive" true (w > 0)
  | _ -> Alcotest.fail "diamond should be exact"

(* The compress generator is deterministic, so its static counter-space
   numbers are stable; these are the figures quoted in EXPERIMENTS.md. *)
let test_compress_report_pinned () =
  let program = Suite.program (Suite.find_exn "compress") in
  let r = Bounds.counter_space_report program in
  Alcotest.(check int) "full heads" 408 r.Bounds.r_full_heads;
  Alcotest.(check int) "paper heads" 407 r.Bounds.r_paper_heads;
  Alcotest.(check bool) "bl total" true
    (r.Bounds.r_bl_total = Bounds.Exact 877_282_904_542);
  Alcotest.(check bool) "ratio tiny" true
    (match r.Bounds.r_net_to_bl_pct with Some p -> p < 0.1 | None -> false)

let test_suite_bl_differential () =
  List.iter
    (fun b ->
       let program = Suite.program b in
       Array.iter
         (fun proc ->
            let pid = proc.Cfg.pid in
            match Bounds.bl_paths program ~proc:pid with
            | Bounds.Exact n ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s" b.Suite.b_name proc.Cfg.name)
                n
                (Ball_larus.num_paths (Ball_larus.analyze program ~proc:pid))
            | Bounds.Overflow -> (
                (* The static count saturates exactly where the
                   instrumentation refuses the procedure. *)
                match Ball_larus.analyze program ~proc:pid with
                | _ ->
                  Alcotest.fail
                    (Printf.sprintf "%s/%s should overflow" b.Suite.b_name
                       proc.Cfg.name)
                | exception Invalid_argument _ -> ()))
         program.Cfg.procs)
    Suite.all

let test_suite_lints_clean () =
  List.iter
    (fun b ->
       let diags = Lint.check_program (Suite.program b) in
       Alcotest.(check bool)
         (Printf.sprintf "%s has no lint errors (got [%s])" b.Suite.b_name
            (codes (List.filter (fun d -> d.Diag.severity = Diag.Error) diags)))
         false (Diag.has_errors diags))
    Suite.all

(* ------------------------------------------------------------------ *)
(* Program-defect injection (P1xx)                                     *)
(* ------------------------------------------------------------------ *)

let blk id proc weight term = { Cfg.id; proc; weight; term }

let prc pid name entry blocks = { Cfg.pid; name; entry; blocks }

let one_proc_prog blocks =
  {
    Cfg.pname = "bad";
    blocks;
    procs = [| prc 0 "main" 0 (Array.map (fun b -> b.Cfg.id) blocks) |];
    main = 0;
  }

let structural_must_flag name code program =
  let diags = Lint.structural program in
  check_has_code name code diags;
  Alcotest.(check bool) (name ^ " is error severity") true (Diag.has_errors diags);
  Alcotest.(check bool) (name ^ " also fails validate") true
    (match Cfg.validate program with Error _ -> true | Ok () -> false)

let test_p100_empty_proc () =
  structural_must_flag "empty procedure" "P100"
    { Cfg.pname = "bad"; blocks = [||]; procs = [| prc 0 "main" 0 [||] |]; main = 0 }

let test_p101_non_dense_ids () =
  structural_must_flag "non-dense ids" "P101"
    (one_proc_prog [| blk 1 0 1 Cfg.Exit |])

let test_p102_entry_not_first () =
  structural_must_flag "entry not first" "P102"
    {
      Cfg.pname = "bad";
      blocks = [| blk 0 0 1 Cfg.Exit; blk 1 0 1 Cfg.Exit |];
      procs = [| prc 0 "main" 1 [| 0; 1 |] |];
      main = 0;
    }

let test_p103_target_out_of_range () =
  structural_must_flag "target out of range" "P103"
    (one_proc_prog
       [| blk 0 0 1 (Cfg.Branch { taken = 99; fallthrough = 1 }); blk 1 0 1 Cfg.Exit |])

let test_p104_cross_proc_jump () =
  structural_must_flag "cross-procedure jump" "P104"
    {
      Cfg.pname = "bad";
      blocks = [| blk 0 0 1 (Cfg.Jump 1); blk 1 1 1 Cfg.Exit |];
      procs = [| prc 0 "main" 0 [| 0 |]; prc 1 "f" 1 [| 1 |] |];
      main = 0;
    }

let test_p105_zero_weight () =
  structural_must_flag "zero weight" "P105" (one_proc_prog [| blk 0 0 0 Cfg.Exit |])

let test_p106_empty_indirect () =
  structural_must_flag "empty indirect" "P106"
    (one_proc_prog [| blk 0 0 1 (Cfg.Indirect [||]) |])

let test_p107_bad_callee () =
  structural_must_flag "call to missing procedure" "P107"
    (one_proc_prog
       [| blk 0 0 1 (Cfg.Call { callee = 5; return_to = 1 }); blk 1 0 1 Cfg.Exit |])

let test_p109_unreachable () =
  let diags = Lint.check_program (with_unreachable ()) in
  check_has_code "unreachable block" "P109" diags;
  Alcotest.(check bool) "only a warning" false (Diag.has_errors diags)

let test_p111_no_return () =
  let b = Cfg.Builder.create ~name:"noreturn" in
  let main = Cfg.Builder.add_proc b ~name:"main" in
  let f = Cfg.Builder.add_proc b ~name:"f" in
  let b0 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:f ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Call { callee = f; return_to = b1 });
  Cfg.Builder.set_term b b1 Cfg.Exit;
  Cfg.Builder.set_term b b2 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  check_has_code "called proc never returns" "P111" (Lint.check_program program)

let test_p112_explosion () =
  (* A ladder of n independent diamonds has 2^n acyclic paths; 25 of them
     clear the 2^20 explosion threshold while staying cheap to build. *)
  let b = Cfg.Builder.create ~name:"explode" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let n = 25 in
  let blocks = Array.init ((2 * n) + 1) (fun _ -> Cfg.Builder.add_block b ~proc:p ~weight:1) in
  for i = 0 to n - 1 do
    let cond = blocks.(2 * i)
    and arm = blocks.((2 * i) + 1)
    and next = blocks.((2 * i) + 2) in
    Cfg.Builder.set_term b cond (Cfg.Branch { taken = next; fallthrough = arm });
    Cfg.Builder.set_term b arm (Cfg.Jump next)
  done;
  Cfg.Builder.set_term b blocks.(2 * n) Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let diags = Lint.check_program program in
  check_has_code "path-count explosion" "P112" diags;
  Alcotest.(check bool) "only a warning" false (Diag.has_errors diags);
  match Bounds.bl_paths program ~proc:0 with
  | Bounds.Exact c -> Alcotest.(check int) "2^25 paths" (1 lsl n) c
  | Bounds.Overflow -> Alcotest.fail "2^25 is below the cap"

(* ------------------------------------------------------------------ *)
(* Trace-defect injection (T2xx)                                       *)
(* ------------------------------------------------------------------ *)

let signature_of ~head bits =
  let sb = Signature.Builder.create ~head in
  List.iter (fun taken -> Signature.Builder.add_branch sb ~taken) bits;
  Signature.Builder.freeze sb

let intern table ~head ~bits ~blocks ~end_kind =
  let n_branches = List.length bits in
  let n_instrs = Array.length blocks in
  Path_table.intern table (signature_of ~head bits) ~blocks ~n_instrs ~n_branches
    ~end_kind

(* One legal trace over [diamond_loop]: entry path takes the loop branch
   back to the head, the second iteration leaves through the exit. *)
let legal_parts () =
  let program = diamond_loop () in
  let table = Path_table.create () in
  let p0 =
    intern table ~head:0 ~bits:[ false; true ] ~blocks:[| 0; 1; 3 |]
      ~end_kind:Path.Backward_transfer
  in
  let p1 =
    intern table ~head:0 ~bits:[ true; false ] ~blocks:[| 0; 2; 3; 4 |]
      ~end_kind:Path.Program_end
  in
  (program, table, [| p0; p1 |], Bytes.of_string "\001\000")

let lint_parts (program, table, instances, arrivals) =
  Trace_lint.check_parts ~program ~table ~instances ~arrivals

let test_legal_trace_clean () =
  let diags = lint_parts (legal_parts ()) in
  Alcotest.(check bool)
    (Printf.sprintf "legal trace lints clean (got [%s])" (codes diags))
    false (Diag.has_errors diags)

let test_t201_unknown_path_id () =
  let program, table, _, _ = legal_parts () in
  check_has_code "unknown path id" "T201"
    (lint_parts (program, table, [| 7 |], Bytes.of_string "\001"))

let test_t202_container_mismatch () =
  let program, table, instances, _ = legal_parts () in
  check_has_code "arrival/instance length mismatch" "T202"
    (lint_parts (program, table, instances, Bytes.of_string "\001"));
  check_has_code "invalid arrival byte" "T202"
    (lint_parts (program, table, instances, Bytes.of_string "\001\003"))

let test_t203_signature_head_mismatch () =
  let program, table, _, _ = legal_parts () in
  let p =
    intern table ~head:0 ~bits:[] ~blocks:[| 1; 3 |] ~end_kind:Path.Program_end
  in
  check_has_code "signature head differs from first block" "T203"
    (lint_parts (program, table, [| p |], Bytes.of_string "\001"))

let test_t204_backward_intra_transfer () =
  let program, table, _, _ = legal_parts () in
  (* 0 -taken-> 2 is fine, but 2's jump goes to 3, never backward to 1. *)
  let p =
    intern table ~head:0 ~bits:[ true ] ~blocks:[| 0; 2; 1 |]
      ~end_kind:Path.Program_end
  in
  check_has_code "illegal intra-path transfer" "T204"
    (lint_parts (program, table, [| p |], Bytes.of_string "\001"))

let test_t205_implausible_end_kind () =
  let program, table, _, _ = legal_parts () in
  (* Block 4 is Exit: it cannot end a path with a backward transfer. *)
  let p =
    intern table ~head:4 ~bits:[] ~blocks:[| 4 |] ~end_kind:Path.Backward_transfer
  in
  check_has_code "end kind impossible for last block" "T205"
    (lint_parts (program, table, [| p |], Bytes.of_string "\001"))

let test_t206_entry_mid_trace () =
  let program, table, instances, _ = legal_parts () in
  check_has_code "entry arrival mid-trace" "T206"
    (lint_parts (program, table, instances, Bytes.of_string "\001\001"))

let test_t207_impossible_hand_off () =
  let program, table, instances, _ = legal_parts () in
  let p0 = instances.(0) and p1 = instances.(1) in
  (* p1 ends at the program exit; nothing can arrive after it. *)
  check_has_code "hand-off after program end" "T207"
    (lint_parts (program, table, [| p1; p0 |], Bytes.of_string "\001\000"))

let test_t208_head_outside_static_set () =
  let program, table, instances, _ = legal_parts () in
  let p0 = instances.(0) in
  (* Block 1 is no backward-transfer target: a loop-head arrival there is
     impossible however the previous path ended. *)
  let stray =
    intern table ~head:1 ~bits:[ false ] ~blocks:[| 1; 3; 4 |]
      ~end_kind:Path.Program_end
  in
  check_has_code "loop head outside the static head set" "T208"
    (lint_parts (program, table, [| p0; stray |], Bytes.of_string "\001\000"))

let test_t209_illegal_continuation () =
  let program, table, instances, _ = legal_parts () in
  let p0 = instances.(0) in
  let cont =
    intern table ~head:4 ~bits:[] ~blocks:[| 4 |] ~end_kind:Path.Program_end
  in
  (* p0 ended with a backward transfer, not a matched return or a capped
     branch: no continuation may follow. *)
  check_has_code "continuation after a backward transfer" "T209"
    (lint_parts (program, table, [| p0; cont |], Bytes.of_string "\001\002"))

let test_of_parts_rejects_errors () =
  let program, table, _, _ = legal_parts () in
  (* All blocks exist and the id is in range, so only the lint hook can
     notice that 2 -> 1 is not a transfer block 2's jump can make. *)
  let p =
    intern table ~head:0 ~bits:[ true ] ~blocks:[| 0; 2; 1 |]
      ~end_kind:Path.Program_end
  in
  let vm_stats =
    {
      Hotpath_vm.Vm.reason = `Exited; blocks = 7; branches = 3; calls = 0;
      returns = 0; indirects = 0; backward_transfers = 1; max_stack = 0;
    }
  in
  match
    Recorder.of_parts ~program ~table ~instances:[| p |]
      ~arrivals:(Bytes.of_string "\001") ~vm_stats
  with
  | Ok _ -> Alcotest.fail "of_parts accepted a corrupt instance stream"
  | Error e ->
    let contains sub s =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "message carries the code (got %S)" e)
      true (contains "T204" e)

(* ------------------------------------------------------------------ *)
(* Fixture corpus sweep                                                *)
(* ------------------------------------------------------------------ *)

let test_fixture_corpus () =
  let names =
    Array.to_list (Sys.readdir "fixtures")
    |> List.filter (fun n -> Filename.check_suffix n ".trace")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length names >= 5);
  List.iter
    (fun name ->
       let diags = Check.file (Filename.concat "fixtures" name) in
       if String.length name >= 6 && String.sub name 0 6 = "valid_" then
         Alcotest.(check bool)
           (Printf.sprintf "%s lints without errors (got [%s])" name (codes diags))
           false (Diag.has_errors diags)
       else
         Alcotest.(check bool)
           (Printf.sprintf "%s yields an error diagnostic" name)
           true (Diag.has_errors diags))
    names

let test_check_file_missing () =
  check_has_code "missing file" "T200" (Check.file "fixtures/no_such_file.trace")

(* ------------------------------------------------------------------ *)
(* Properties over random workloads                                    *)
(* ------------------------------------------------------------------ *)

let gen_loop_kind =
  QCheck.Gen.(
    let* branches = 0 -- 5 in
    let* bias = float_range 0.5 0.95 in
    let* iterations = 2 -- 50 in
    let* calls = bool in
    let* indirect = oneofl [ 0; 0; 0; 2; 3; 4 ] in
    return (Generator.loop ~branches ~bias ~iterations ~calls ~indirect ()))

let gen_spec =
  QCheck.Gen.(
    let* n_groups = 1 -- 3 in
    let* groups =
      list_repeat n_groups
        (let* count = 1 -- 3 in
         let* kind = gen_loop_kind in
         return (count, kind))
    in
    let* procs = 1 -- 3 in
    return
      { Generator.g_name = "prop"; g_loops = groups; g_procs = procs;
        g_phase_steps = None })

let arb_workload =
  QCheck.make
    ~print:(fun (spec, seed) ->
      Printf.sprintf "{loops=%d procs=%d} seed=%d" (Generator.total_loops spec)
        spec.Generator.g_procs seed)
    QCheck.Gen.(pair gen_spec (0 -- 1_000_000))

let record_spec (spec, seed) =
  let program, behavior = Generator.build spec ~seed in
  let recorded =
    Recorder.record ~max_steps:12_000 program behavior
      ~rng:(Prng.create ~seed:(seed + 1))
  in
  (program, recorded)

let prop_dynamic_heads_in_static_set =
  QCheck.Test.make ~name:"dynamic loop-head set is inside the static head set"
    ~count:40 arb_workload
    (fun w ->
       let program, recorded = record_spec w in
       let hs = Bounds.static_heads program in
       let ok = ref true in
       Array.iteri
         (fun i pid ->
            match Recorder.arrival recorded i with
            | Path.Loop_head ->
              let head = Path.head (Path_table.path recorded.Recorder.table pid) in
              if not hs.Bounds.full.(head) then ok := false
            | Path.Entry | Path.Continuation -> ())
         recorded.Recorder.instances;
       !ok)

let prop_static_bl_matches_instrumentation =
  QCheck.Test.make ~name:"static Ball-Larus count equals the instrumented count"
    ~count:30 arb_workload
    (fun (spec, seed) ->
       let program, _ = Generator.build spec ~seed in
       Array.for_all
         (fun proc ->
            match Bounds.bl_paths program ~proc:proc.Cfg.pid with
            | Bounds.Exact n ->
              n = Ball_larus.num_paths (Ball_larus.analyze program ~proc:proc.Cfg.pid)
            | Bounds.Overflow -> (
                match Ball_larus.analyze program ~proc:proc.Cfg.pid with
                | _ -> false
                | exception Invalid_argument _ -> true))
         program.Cfg.procs)

let prop_counter_space_within_static_bounds =
  QCheck.Test.make ~name:"replay counter space stays within the static bounds"
    ~count:30 arb_workload
    (fun w ->
       let program, recorded = record_spec w in
       Recorder.num_instances recorded = 0
       ||
       let hs = Bounds.static_heads program in
       let net = Replay.run (module Net) ~delay:5 recorded in
       let pp = Replay.run (module Path_profile) ~delay:5 recorded in
       net.Replay.counter_space <= Bounds.full_head_count hs
       && pp.Replay.counter_space <= Recorder.num_paths recorded
       && Bounds.count_le (Bounds.Exact (Recorder.num_paths recorded))
            (Bounds.forward_walks program))

let prop_structural_lint_iff_validate =
  QCheck.Test.make ~name:"structural lint is empty exactly when validate passes"
    ~count:40 arb_workload
    (fun (spec, seed) ->
       let program, _ = Generator.build spec ~seed in
       (Lint.structural program = [] && Cfg.validate program = Ok ())
       &&
       (* Break it and both must flag. *)
       let broken =
         { program with
           Cfg.blocks =
             Array.map
               (fun b ->
                  if b.Cfg.id = Cfg.entry_block program then
                    { b with Cfg.term = Cfg.Jump 999_999 }
                  else b)
               program.Cfg.blocks }
       in
       Lint.structural broken <> [] && Cfg.validate broken <> Ok ())

(* [check_parts] as a session sees it: the stream cut into batches of
   [g] instances (fresh copies, so no batch aliases the recording),
   stopping after the first batch with an error, as a session refusing
   that batch would. *)
let lint_in_cuts ~program ~table ~instances ~arrivals g =
  match Trace_lint.Incremental.create ~program ~table with
  | Error diags -> diags
  | Ok t ->
    let n = Array.length instances in
    let rec go off acc =
      if off >= n then acc
      else
        let m = min g (n - off) in
        let b =
          { Hotpath_trace.Batch.n = m; ids = Array.sub instances off m;
            arrs = Bytes.sub arrivals off m }
        in
        let d = Trace_lint.Incremental.check_batch t b in
        if Diag.has_errors d then d :: acc else go (off + m) (d :: acc)
    in
    let stream = List.concat (List.rev (go 0 [])) in
    let late = Trace_lint.Incremental.flush_paths t in
    Trace_lint.Incremental.program_diags t @ stream @ late

let first_error diags =
  List.find_opt (fun d -> d.Diag.severity = Diag.Error) diags

let prop_recordings_lint_without_errors =
  (* A recording lints clean, and lint.mli's promise holds on it:
     check_batch over any cut plus flush_paths is check_parts.  Cuts:
     every instance a seam, primes that never align, one batch past the
     end.  With one arrival byte changed (to another valid code, or to
     7), the cut run's first error is check_parts's. *)
  QCheck.Test.make
    ~name:"real recordings carry no error-severity findings, in any batch cut"
    ~count:30 arb_workload
    (fun ((_, seed) as w) ->
       let program, r = record_spec w in
       let table = r.Recorder.table and instances = r.Recorder.instances in
       let n = Array.length instances in
       let cuts = [ 1; 2; 7; 13; 2 + (seed mod 97); 997; n + 1 ] in
       let whole arrivals =
         Trace_lint.check_parts ~program ~table ~instances ~arrivals
       in
       let clean = r.Recorder.arrivals in
       let reference = Recorder.lint r in
       (not (Diag.has_errors reference))
       && List.for_all
         (fun g ->
            lint_in_cuts ~program ~table ~instances ~arrivals:clean g = reference)
         cuts
       && (n = 0
           ||
           let flipped = Bytes.copy clean and i = seed mod n in
           let old = Bytes.get clean i in
           let codes = [| '\000'; '\001'; '\002'; '\007' |] in
           let c = codes.(seed / n mod 4) in
           Bytes.set flipped i (if c = old then '\007' else c);
           let expected = first_error (whole flipped) in
           List.for_all
             (fun g ->
                first_error
                  (lint_in_cuts ~program ~table ~instances ~arrivals:flipped g)
                = expected)
             cuts))

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "dominators: diamond" `Quick test_dominators_diamond;
        Alcotest.test_case "dominators: unreachable" `Quick test_dominators_unreachable;
        Alcotest.test_case "loops: diamond" `Quick test_loops_diamond;
        Alcotest.test_case "loops: nested" `Quick test_loops_nested;
        Alcotest.test_case "loops: irreducible" `Quick test_irreducible;
        Alcotest.test_case "heads: diamond" `Quick test_heads_diamond;
        Alcotest.test_case "heads: full vs paper" `Quick test_full_vs_paper_heads;
        Alcotest.test_case "bl: diamond differential" `Quick test_bl_paths_diamond;
        Alcotest.test_case "bl: count arithmetic" `Quick test_count_arithmetic;
        Alcotest.test_case "bl: forward walks" `Quick test_forward_walks_bound;
        Alcotest.test_case "report: compress pinned" `Quick test_compress_report_pinned;
        Alcotest.test_case "bl: suite differential" `Slow test_suite_bl_differential;
        Alcotest.test_case "suite lints clean" `Slow test_suite_lints_clean;
      ] );
    ( "analysis:inject",
      [
        Alcotest.test_case "P100 empty proc" `Quick test_p100_empty_proc;
        Alcotest.test_case "P101 non-dense ids" `Quick test_p101_non_dense_ids;
        Alcotest.test_case "P102 entry not first" `Quick test_p102_entry_not_first;
        Alcotest.test_case "P103 target range" `Quick test_p103_target_out_of_range;
        Alcotest.test_case "P104 cross-proc" `Quick test_p104_cross_proc_jump;
        Alcotest.test_case "P105 zero weight" `Quick test_p105_zero_weight;
        Alcotest.test_case "P106 empty indirect" `Quick test_p106_empty_indirect;
        Alcotest.test_case "P107 bad callee" `Quick test_p107_bad_callee;
        Alcotest.test_case "P109 unreachable" `Quick test_p109_unreachable;
        Alcotest.test_case "P111 no return" `Quick test_p111_no_return;
        Alcotest.test_case "P112 explosion" `Quick test_p112_explosion;
        Alcotest.test_case "legal trace clean" `Quick test_legal_trace_clean;
        Alcotest.test_case "T201 unknown path id" `Quick test_t201_unknown_path_id;
        Alcotest.test_case "T202 containers" `Quick test_t202_container_mismatch;
        Alcotest.test_case "T203 head mismatch" `Quick test_t203_signature_head_mismatch;
        Alcotest.test_case "T204 backward transfer" `Quick test_t204_backward_intra_transfer;
        Alcotest.test_case "T205 end kind" `Quick test_t205_implausible_end_kind;
        Alcotest.test_case "T206 entry mid-trace" `Quick test_t206_entry_mid_trace;
        Alcotest.test_case "T207 hand-off" `Quick test_t207_impossible_hand_off;
        Alcotest.test_case "T208 head set" `Quick test_t208_head_outside_static_set;
        Alcotest.test_case "T209 continuation" `Quick test_t209_illegal_continuation;
        Alcotest.test_case "of_parts gate" `Quick test_of_parts_rejects_errors;
        Alcotest.test_case "fixture corpus" `Quick test_fixture_corpus;
        Alcotest.test_case "missing file" `Quick test_check_file_missing;
      ] );
    ( "analysis:properties",
      [
        QCheck_alcotest.to_alcotest prop_dynamic_heads_in_static_set;
        QCheck_alcotest.to_alcotest prop_static_bl_matches_instrumentation;
        QCheck_alcotest.to_alcotest prop_counter_space_within_static_bounds;
        QCheck_alcotest.to_alcotest prop_structural_lint_iff_validate;
        QCheck_alcotest.to_alcotest prop_recordings_lint_without_errors;
      ] );
  ]
