(* Tests for the interpreter and branch behaviour models. *)

module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Behavior = Hotpath_vm.Behavior
module Prng = Hotpath_util.Prng

let rng () = Prng.create ~seed:1234

module T = Ref_recorder

let collect_transfers ?(max_steps = 10_000) program behavior =
  T.transfers ~max_steps (Vm.create program behavior ~rng:(rng ()))

let block_sequence transfers =
  List.map (fun tr -> tr.T.src) transfers

let test_simple_loop_trace () =
  let program, behavior, (b0, b1, b2, b3) = Fixtures.simple_loop ~iterations:3 () in
  let transfers, stats = collect_transfers program behavior in
  Alcotest.(check bool) "exits" true (stats.Vm.reason = `Exited);
  (* 3 iterations: b0 b1 b2 b1 b2 b1 b2 b3 *)
  Alcotest.(check (list int)) "block sequence"
    [ b0; b1; b2; b1; b2; b1; b2; b3 ]
    (block_sequence transfers);
  Alcotest.(check int) "branches" 3 stats.Vm.branches;
  Alcotest.(check int) "backward transfers" 2 stats.Vm.backward_transfers

let test_branch_outcomes_recorded () =
  let program, behavior, (_, b1, b2, _) = Fixtures.simple_loop ~iterations:2 () in
  let transfers, _ = collect_transfers program behavior in
  let branch_outcomes =
    List.filter_map
      (fun tr ->
         match tr.T.kind with
         | T.T_branch { taken } -> Some (tr.T.src, taken, tr.T.dst, tr.T.backward)
         | _ -> None)
      transfers
  in
  Alcotest.(check int) "two branch events" 2 (List.length branch_outcomes);
  (match branch_outcomes with
   | [ (s1, t1, d1, back1); (s2, t2, _, back2) ] ->
     Alcotest.(check int) "src" b2 s1;
     Alcotest.(check bool) "first taken" true t1;
     Alcotest.(check (option int)) "to head" (Some b1) d1;
     Alcotest.(check bool) "taken is backward" true back1;
     Alcotest.(check int) "src" b2 s2;
     Alcotest.(check bool) "second not taken" false t2;
     Alcotest.(check bool) "fallthrough is forward" false back2
   | _ -> Alcotest.fail "unexpected branch events")

let test_call_return () =
  let program, behavior, (b0, b1, b2, b3, b4, b5, b6) = Fixtures.call_loop ~iterations:2 () in
  let transfers, stats = collect_transfers program behavior in
  Alcotest.(check int) "calls" 2 stats.Vm.calls;
  Alcotest.(check int) "returns" 2 stats.Vm.returns;
  Alcotest.(check (list int)) "block sequence"
    [ b0; b1; b2; b3; b4; b5; b1; b2; b3; b4; b5; b6 ]
    (block_sequence transfers);
  (* Helper is laid out between call site and return-to: both the call
     (b2 -> b3) and the return (b4 -> b5) are forward. *)
  let call_forward =
    List.exists
      (fun tr -> tr.T.kind = T.T_call && tr.T.src = b2 && not tr.T.backward)
      transfers
  and return_forward =
    List.exists
      (fun tr -> tr.T.kind = T.T_return && tr.T.src = b4 && not tr.T.backward)
      transfers
  in
  Alcotest.(check bool) "call b2->b3 is forward" true call_forward;
  Alcotest.(check bool) "return b4->b5 is forward" true return_forward

let test_recursive_call_backward () =
  let program, behavior, (_, _, b2, b3, _, _) = Fixtures.recursive ~depth:3 () in
  let transfers, stats = collect_transfers ~max_steps:100 program behavior in
  Alcotest.(check bool) "exits" true (stats.Vm.reason = `Exited);
  let recursive_call_backward =
    List.exists
      (fun tr ->
         tr.T.kind = T.T_call && tr.T.src = b3 && tr.T.dst = Some b2
         && tr.T.backward)
      transfers
  in
  Alcotest.(check bool) "recursive call is backward" true recursive_call_backward

let test_indirect_targets () =
  let program, behavior, (_, _, b2, b3, b4, _, _) =
    Fixtures.indirect_loop ~weights:[| 1.0; 0.0 |] ~exit_prob:0.5 ()
  in
  let transfers, _ = collect_transfers ~max_steps:1000 program behavior in
  List.iter
    (fun tr ->
       if tr.T.kind = T.T_indirect && tr.T.src = b2 then begin
         Alcotest.(check (option int)) "always first target" (Some b3) tr.T.dst;
         Alcotest.(check bool) "never second" true (tr.T.dst <> Some b4)
       end)
    transfers

let test_fuel () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:1_000_000 () in
  let _, stats = collect_transfers ~max_steps:50 program behavior in
  Alcotest.(check bool) "fuel" true (stats.Vm.reason = `Fuel);
  Alcotest.(check int) "blocks bounded" 50 stats.Vm.blocks

let test_determinism () =
  let program, behavior, _ = Fixtures.indirect_loop () in
  let t1, _ = collect_transfers ~max_steps:500 program behavior in
  let t2, _ = collect_transfers ~max_steps:500 program behavior in
  Alcotest.(check (list int)) "same block sequence" (block_sequence t1)
    (block_sequence t2)

let test_stack_overflow () =
  (* Recursion that never bottoms out must hit the stack guard. *)
  let program, behavior, (_, _, b2, _, _, _) = Fixtures.recursive () in
  Behavior.set_branch behavior b2 (Behavior.Always true);
  let vm = Vm.create ~max_stack:64 program behavior ~rng:(rng ()) in
  let overflowed = ref false in
  (try ignore (Vm.run ~max_steps:10_000 vm ~on_transfer:ignore)
   with Failure msg ->
     overflowed := true;
     Alcotest.(check bool) "mentions overflow" true
       (String.length msg > 0
        && String.sub msg 0 7 = "Vm.step"));
  Alcotest.(check bool) "overflowed" true !overflowed

let test_invalid_behavior_rejected () =
  let program, behavior, (_, _, b2, _) = Fixtures.simple_loop () in
  Behavior.set_branch behavior b2 (Behavior.Bias 1.5);
  (match Vm.create program behavior ~rng:(rng ()) with
   | exception Invalid_argument _ -> ()
   | (_ : Vm.t) -> Alcotest.fail "expected rejection of invalid behavior")

let test_behavior_validate () =
  let _program, behavior, (_, _, b2, _) = Fixtures.simple_loop () in
  Alcotest.(check bool) "valid" true (Behavior.validate behavior = Ok ());
  Behavior.set_branch behavior b2
    (Behavior.Correlated { bits = 2; taken_prob = [| 0.1; 0.2 |] });
  Alcotest.(check bool) "bad correlated table" true (Behavior.validate behavior <> Ok ());
  Behavior.set_branch behavior b2 (Behavior.Periodic [||]);
  Alcotest.(check bool) "empty periodic" true (Behavior.validate behavior <> Ok ());
  Behavior.set_branch behavior b2
    (Behavior.Phased [| (100, Behavior.Bias 0.5); (50, Behavior.Bias 0.9) |]);
  Alcotest.(check bool) "non-ascending phases" true (Behavior.validate behavior <> Ok ())

let test_behavior_set_wrong_kind () =
  let _program, behavior, (b0, _, b2, _) = Fixtures.simple_loop () in
  Alcotest.check_raises "set_branch on jump"
    (Invalid_argument (Printf.sprintf "Behavior.set_branch: block %d is not a branch" b0))
    (fun () -> Behavior.set_branch behavior b0 (Behavior.Always true));
  Alcotest.check_raises "set_indirect on branch"
    (Invalid_argument
       (Printf.sprintf "Behavior.set_indirect: block %d is not indirect" b2))
    (fun () -> Behavior.set_indirect behavior b2 Behavior.Uniform_target)

let test_phased_behavior_switches () =
  (* Loop branch: almost-always taken before step 100, never taken after. *)
  let program, behavior, (_, _, b2, _) = Fixtures.simple_loop () in
  Behavior.set_branch behavior b2
    (Behavior.Phased [| (100, Behavior.Always true); (max_int, Behavior.Always false) |]);
  let vm = Vm.create program behavior ~rng:(rng ()) in
  let stats = Vm.run ~max_steps:100_000 vm ~on_transfer:ignore in
  Alcotest.(check bool) "terminates shortly after the phase flip" true
    (stats.Vm.reason = `Exited && stats.Vm.blocks < 110)

let test_correlated_model_uses_history () =
  (* Branch taken iff the previous outcome of the same (only) branch was
     not-taken: alternates deterministically. *)
  let program, behavior, (_, _, b2, _) = Fixtures.simple_loop () in
  Behavior.set_branch behavior b2
    (Behavior.Correlated { bits = 1; taken_prob = [| 1.0; 0.0 |] });
  let vm = Vm.create program behavior ~rng:(rng ()) in
  let outcomes = ref [] in
  let _ =
    Vm.run ~max_steps:40 vm ~on_transfer:(fun vm ->
        let c = Vm.cursor vm in
        if c.Vm.kind = Vm.T_branch then outcomes := c.Vm.taken :: !outcomes)
  in
  (* History starts at 0 -> taken, then not taken, then program exits. *)
  Alcotest.(check (list bool)) "alternating" [ true; false ] (List.rev !outcomes)

let suites =
  [
    ( "vm",
      [
        Alcotest.test_case "simple loop trace" `Quick test_simple_loop_trace;
        Alcotest.test_case "branch outcomes" `Quick test_branch_outcomes_recorded;
        Alcotest.test_case "call/return" `Quick test_call_return;
        Alcotest.test_case "recursive call backward" `Quick test_recursive_call_backward;
        Alcotest.test_case "indirect weights" `Quick test_indirect_targets;
        Alcotest.test_case "fuel" `Quick test_fuel;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
        Alcotest.test_case "invalid behavior rejected" `Quick
          test_invalid_behavior_rejected;
        Alcotest.test_case "behavior validation" `Quick test_behavior_validate;
        Alcotest.test_case "behavior wrong kind" `Quick test_behavior_set_wrong_kind;
        Alcotest.test_case "phased behavior" `Quick test_phased_behavior_switches;
        Alcotest.test_case "correlated behavior" `Quick
          test_correlated_model_uses_history;
      ] );
  ]
