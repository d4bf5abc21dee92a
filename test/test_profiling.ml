(* Tests for the offline profiling substrates: Ball-Larus, bit tracing,
   Young-Smith. *)

module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Behavior = Hotpath_vm.Behavior
module Prng = Hotpath_util.Prng
module Ball_larus = Hotpath_profiling.Ball_larus
module Bit_tracing = Hotpath_profiling.Bit_tracing
module Young_smith = Hotpath_profiling.Young_smith
module Recorder = Hotpath_trace.Recorder
module Path = Hotpath_trace.Path

(* ------------------------------------------------------------------ *)
(* Ball-Larus: static numbering                                        *)
(* ------------------------------------------------------------------ *)

(* Diamond: A -> {B,C} -> D -> exit. *)
let diamond () =
  let b = Cfg.Builder.create ~name:"diamond" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let a = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let c = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let d = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b a (Cfg.Branch { taken = c; fallthrough = b1 });
  Cfg.Builder.set_term b b1 (Cfg.Jump d);
  Cfg.Builder.set_term b c (Cfg.Jump d);
  Cfg.Builder.set_term b d Cfg.Exit;
  (Cfg.Builder.finish b, (a, b1, c, d))

let test_bl_diamond () =
  let program, (a, b1, c, d) = diamond () in
  let t = Ball_larus.analyze program ~proc:0 in
  Alcotest.(check int) "two paths" 2 (Ball_larus.num_paths t);
  let paths = Ball_larus.enumerate t in
  Alcotest.(check int) "enumerated" 2 (Array.length paths);
  let sorted = Array.to_list paths |> List.sort compare in
  Alcotest.(check (list (list int))) "both diamond sides"
    [ [ a; b1; d ]; [ a; c; d ] ]
    sorted

let test_bl_numbers_dense_unique () =
  let program, _ = diamond () in
  let t = Ball_larus.analyze program ~proc:0 in
  let paths = Ball_larus.enumerate t in
  Array.iteri
    (fun i blocks ->
       Alcotest.(check int) "roundtrip" i
         (Ball_larus.path_number t blocks))
    paths

let test_bl_simple_loop () =
  let program, _, (b0, b1, b2, b3) = Fixtures.simple_loop () in
  let t = Ball_larus.analyze program ~proc:0 in
  (* Starts: entry b0 or loop head b1; ends: back edge at b2 or exit after
     b3 -> 4 acyclic paths. *)
  Alcotest.(check int) "four paths" 4 (Ball_larus.num_paths t);
  let paths = Ball_larus.enumerate t |> Array.to_list |> List.sort compare in
  Alcotest.(check (list (list int))) "path shapes"
    [ [ b0; b1; b2 ]; [ b0; b1; b2; b3 ]; [ b1; b2 ]; [ b1; b2; b3 ] ]
    paths

let test_bl_regenerate_bounds () =
  let program, _ = diamond () in
  let t = Ball_larus.analyze program ~proc:0 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Ball_larus.regenerate: -1 outside [0,2)") (fun () ->
      ignore (Ball_larus.regenerate t (-1)));
  Alcotest.check_raises "too big"
    (Invalid_argument "Ball_larus.regenerate: 2 outside [0,2)") (fun () ->
      ignore (Ball_larus.regenerate t 2))

let test_bl_spanning_tree_reduces_instrumentation () =
  let program, _, _ = Fixtures.simple_loop () in
  let t = Ball_larus.analyze program ~proc:0 in
  Alcotest.(check bool) "chords < edges" true
    (Ball_larus.num_chords t < Ball_larus.num_edges t);
  (* Tree has (#nodes - 1) edges; with the forced EXIT->ENTRY edge the
     chord count is  #edges + 1 - (#nodes - 1)  when the graph is
     connected. *)
  let nodes =
    let procedure = Cfg.proc program 0 in
    Array.length procedure.Cfg.blocks + 2
  in
  Alcotest.(check int) "chord count"
    (Ball_larus.num_edges t + 1 - (nodes - 1))
    (Ball_larus.num_chords t)

(* Sum of chord increments along a path equals its number. *)
let chord_sum t blocks =
  let edges = Ball_larus.edges t in
  let find_pseudo_entry dst =
    List.find
      (fun e ->
         e.Ball_larus.e_kind = Ball_larus.Pseudo_entry
         && e.Ball_larus.e_dst = Ball_larus.Block dst)
      edges
  in
  let find_real src dst =
    List.find
      (fun e ->
         e.Ball_larus.e_kind = Ball_larus.Real
         && e.Ball_larus.e_src = Ball_larus.Block src
         && e.Ball_larus.e_dst = Ball_larus.Block dst)
      edges
  in
  let find_exit src =
    List.find
      (fun e ->
         (e.Ball_larus.e_kind = Ball_larus.To_exit
          || e.Ball_larus.e_kind = Ball_larus.Pseudo_exit)
         && e.Ball_larus.e_src = Ball_larus.Block src)
      edges
  in
  let rec walk acc = function
    | [] -> acc
    | [ last ] -> acc + (find_exit last).Ball_larus.e_inc
    | x :: (y :: _ as rest) -> walk (acc + (find_real x y).Ball_larus.e_inc) rest
  in
  match blocks with
  | [] -> 0
  | first :: _ -> walk (find_pseudo_entry first).Ball_larus.e_inc blocks

let test_bl_chord_increments_sum_to_number () =
  let program, _, _ = Fixtures.simple_loop () in
  let t = Ball_larus.analyze program ~proc:0 in
  Array.iteri
    (fun i blocks ->
       Alcotest.(check int) "inc sum = path number" i (chord_sum t blocks))
    (Ball_larus.enumerate t)

(* Random forward DAGs: every block i < n-1 branches to two distinct
   higher-numbered blocks; block n-1 exits. *)
let random_dag_program seed n =
  let rng = Prng.create ~seed in
  let b = Cfg.Builder.create ~name:(Printf.sprintf "dag%d" seed) in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let ids = Array.init n (fun _ -> Cfg.Builder.add_block b ~proc:p ~weight:1) in
  for i = 0 to n - 2 do
    let pick_target () = ids.(i + 1 + Prng.int rng ~bound:(n - 1 - i)) in
    if i = n - 2 then Cfg.Builder.set_term b ids.(i) (Cfg.Jump ids.(n - 1))
    else begin
      let taken = pick_target () in
      let rec pick_other () =
        let f = pick_target () in
        if f = taken && n - 1 - i > 1 then pick_other () else f
      in
      let fallthrough = pick_other () in
      if taken = fallthrough then Cfg.Builder.set_term b ids.(i) (Cfg.Jump taken)
      else Cfg.Builder.set_term b ids.(i) (Cfg.Branch { taken; fallthrough })
    end
  done;
  Cfg.Builder.set_term b ids.(n - 1) Cfg.Exit;
  Cfg.Builder.finish b

let prop_bl_random_dags =
  QCheck.Test.make ~name:"BL numbering dense+unique, incs sum on random DAGs"
    ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 2 9))
    (fun (seed, n) ->
       let program = random_dag_program seed n in
       let t = Ball_larus.analyze program ~proc:0 in
       let paths = Ball_larus.enumerate t in
       Array.length paths = Ball_larus.num_paths t
       && Array.for_all
            (fun blocks -> List.length blocks > 0)
            paths
       &&
       let ok = ref true in
       Array.iteri
         (fun i blocks ->
            if Ball_larus.path_number t blocks <> i then ok := false;
            if chord_sum t blocks <> i then ok := false)
         paths;
       (* Distinctness: dense numbering of distinct regenerations. *)
       let tbl = Hashtbl.create 16 in
       Array.iter
         (fun blocks ->
            if Hashtbl.mem tbl blocks then ok := false;
            Hashtbl.add tbl blocks ())
         paths;
       !ok)

(* ------------------------------------------------------------------ *)
(* Ball-Larus: runtime                                                 *)
(* ------------------------------------------------------------------ *)

let run_bl_runtime ?(max_steps = 100_000) ?(seed = 5) program behavior =
  let rt = Ball_larus.Runtime.create program in
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed) in
  let _ =
    Vm.run ~max_steps vm ~on_transfer:(Ball_larus.Runtime.on_transfer rt)
  in
  rt

let test_bl_runtime_simple_loop () =
  let program, behavior, (b0, b1, b2, b3) = Fixtures.simple_loop ~iterations:5 () in
  let rt = run_bl_runtime program behavior in
  let t = Ball_larus.Runtime.analysis rt 0 in
  let counts = Ball_larus.Runtime.counts rt 0 in
  Alcotest.(check int) "total counted" 5 (Ball_larus.Runtime.total_counted rt);
  let decoded =
    List.map (fun (n, c) -> (Ball_larus.regenerate t n, c)) counts
    |> List.sort compare
  in
  Alcotest.(check (list (pair (list int) int))) "decoded counts"
    [ ([ b0; b1; b2 ], 1); ([ b1; b2 ], 3); ([ b1; b2; b3 ], 1) ]
    decoded

let test_bl_runtime_calls () =
  let program, behavior, (_, _, _, b3, b4, _, _) = Fixtures.call_loop ~iterations:3 () in
  let rt = run_bl_runtime program behavior in
  (* Helper (proc 1) runs 3 times, one straight-line path b3;b4. *)
  let t1 = Ball_larus.Runtime.analysis rt 1 in
  let counts = Ball_larus.Runtime.counts rt 1 in
  (match counts with
   | [ (n, c) ] ->
     Alcotest.(check int) "helper count" 3 c;
     Alcotest.(check (list int)) "helper path" [ b3; b4 ] (Ball_larus.regenerate t1 n)
   | other -> Alcotest.failf "expected one helper path, got %d" (List.length other));
  Alcotest.(check bool) "counter space sane" true
    (Ball_larus.Runtime.counter_space rt >= 2)

let test_bl_runtime_ops_bounded () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:100 () in
  let rt = run_bl_runtime program behavior in
  (* Spanning-tree scheme: strictly fewer increment ops than executed
     transfers would be charged by naive all-edges instrumentation. *)
  Alcotest.(check bool) "ops positive" true (Ball_larus.Runtime.instrumented_ops rt > 0);
  Alcotest.(check bool) "ops bounded by transfers" true
    (Ball_larus.Runtime.instrumented_ops rt < 3 * 100 * 2)

let test_bl_runtime_matches_trace_paths_on_intraproc () =
  (* For a single-procedure program with only forward/backward branches the
     BL runtime's counted paths coincide with the recorder's path
     instances (same segmentation: backward edges and exit). *)
  let program, behavior, _ = Fixtures.simple_loop ~iterations:37 () in
  let rt = run_bl_runtime program behavior in
  let r =
    Recorder.record program behavior ~rng:(Prng.create ~seed:5)
  in
  Alcotest.(check int) "same number of counted paths"
    (Recorder.num_instances r)
    (Ball_larus.Runtime.total_counted rt)

(* ------------------------------------------------------------------ *)
(* Bit tracing                                                         *)
(* ------------------------------------------------------------------ *)

let test_bit_tracing_profile () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:10 () in
  let r = Recorder.record program behavior ~rng:(Prng.create ~seed:1) in
  let p = Bit_tracing.profile r in
  Alcotest.(check int) "total flow" 10 p.Bit_tracing.total_flow;
  Alcotest.(check int) "counter space" 3 p.Bit_tracing.counter_space;
  Alcotest.(check int) "table updates" 10 p.Bit_tracing.table_updates;
  (* Every instance executes exactly one conditional branch here. *)
  Alcotest.(check int) "shift ops" 10 p.Bit_tracing.shift_ops;
  (match Array.to_list p.Bit_tracing.entries with
   | (hot, freq) :: _ ->
     Alcotest.(check int) "hottest is the loop body" 8 freq;
     Alcotest.(check int) "loop body length" 2 (Array.length hot.Path.blocks)
   | [] -> Alcotest.fail "no entries")

let test_bit_tracing_hot_set () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:1000 () in
  let r = Recorder.record program behavior ~rng:(Prng.create ~seed:1) in
  let p = Bit_tracing.profile r in
  let hot = Bit_tracing.hot_set p ~threshold:0.001 in
  (* Loop body dominates; entry and exit paths are below 0.1%. *)
  Alcotest.(check int) "only the loop body is hot" 1 (Array.length hot);
  let cov = Bit_tracing.coverage p hot in
  Alcotest.(check bool) "coverage > 99%" true (cov > 99.0);
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Bit_tracing.hot_set: threshold must be in (0,1)") (fun () ->
      ignore (Bit_tracing.hot_set p ~threshold:0.0))

(* ------------------------------------------------------------------ *)
(* Young-Smith                                                         *)
(* ------------------------------------------------------------------ *)

let feed_ys ?(max_steps = 100_000) ~k ?(seed = 5) program behavior =
  let ys = Young_smith.create ~k in
  let vm = Vm.create program behavior ~rng:(Prng.create ~seed) in
  let _ = Vm.run ~max_steps vm ~on_transfer:(Young_smith.on_transfer ys) in
  ys

let test_ys_k1_counts_branch_outcomes () =
  let program, behavior, (_, _, b2, _) = Fixtures.simple_loop ~iterations:10 () in
  let ys = feed_ys ~k:1 program behavior in
  Alcotest.(check int) "branches seen" 10 (Young_smith.branches_seen ys);
  let counts = Young_smith.counts ys in
  Alcotest.(check int) "two windows (taken / not taken)" 2 (List.length counts);
  let taken_count =
    List.assoc { Young_smith.w_branches = [| (b2, true) |] } counts
  in
  Alcotest.(check int) "taken 9 of 10" 9 taken_count

let test_ys_k2_windows () =
  let program, behavior, (_, _, b2, _) = Fixtures.simple_loop ~iterations:5 () in
  let ys = feed_ys ~k:2 program behavior in
  (* Outcomes: T T T T F -> windows: TT TT TT TF. *)
  let counts = Young_smith.counts ys in
  let get w = Option.value ~default:0 (List.assoc_opt w counts) in
  Alcotest.(check int) "TT x3" 3
    (get { Young_smith.w_branches = [| (b2, true); (b2, true) |] });
  Alcotest.(check int) "TF x1" 1
    (get { Young_smith.w_branches = [| (b2, true); (b2, false) |] });
  Alcotest.(check int) "counter space" 2 (Young_smith.counter_space ys)

let test_ys_warmup_not_counted () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:3 () in
  let ys = feed_ys ~k:8 program behavior in
  (* Only 3 branches execute: shorter than k, nothing counted. *)
  Alcotest.(check int) "nothing counted" 0 (Young_smith.counter_space ys)

let test_ys_invalid_k () =
  Alcotest.check_raises "k too small"
    (Invalid_argument "Young_smith.create: k must be in [1,32]") (fun () ->
      ignore (Young_smith.create ~k:0));
  Alcotest.check_raises "k too big"
    (Invalid_argument "Young_smith.create: k must be in [1,32]") (fun () ->
      ignore (Young_smith.create ~k:33))

let test_ys_top_and_to_string () =
  let program, behavior, (_, _, b2, _) = Fixtures.simple_loop ~iterations:10 () in
  let ys = feed_ys ~k:1 program behavior in
  (match Young_smith.top ys ~n:1 with
   | [ (w, c) ] ->
     Alcotest.(check int) "hottest count" 9 c;
     Alcotest.(check string) "rendering" (Printf.sprintf "(B%d:1)" b2)
       (Young_smith.window_to_string w)
   | _ -> Alcotest.fail "expected exactly one");
  Alcotest.(check int) "top n clamps" 2 (List.length (Young_smith.top ys ~n:10))

let suites =
  [
    ( "profiling.ball_larus",
      [
        Alcotest.test_case "diamond" `Quick test_bl_diamond;
        Alcotest.test_case "dense unique numbers" `Quick test_bl_numbers_dense_unique;
        Alcotest.test_case "simple loop DAG" `Quick test_bl_simple_loop;
        Alcotest.test_case "regenerate bounds" `Quick test_bl_regenerate_bounds;
        Alcotest.test_case "spanning tree reduces instrumentation" `Quick
          test_bl_spanning_tree_reduces_instrumentation;
        Alcotest.test_case "chord increments sum" `Quick
          test_bl_chord_increments_sum_to_number;
        QCheck_alcotest.to_alcotest prop_bl_random_dags;
      ] );
    ( "profiling.ball_larus.runtime",
      [
        Alcotest.test_case "simple loop counts" `Quick test_bl_runtime_simple_loop;
        Alcotest.test_case "calls" `Quick test_bl_runtime_calls;
        Alcotest.test_case "ops bounded" `Quick test_bl_runtime_ops_bounded;
        Alcotest.test_case "matches recorder segmentation" `Quick
          test_bl_runtime_matches_trace_paths_on_intraproc;
      ] );
    ( "profiling.bit_tracing",
      [
        Alcotest.test_case "profile" `Quick test_bit_tracing_profile;
        Alcotest.test_case "hot set" `Quick test_bit_tracing_hot_set;
      ] );
    ( "profiling.young_smith",
      [
        Alcotest.test_case "k=1 outcome counts" `Quick test_ys_k1_counts_branch_outcomes;
        Alcotest.test_case "k=2 windows" `Quick test_ys_k2_windows;
        Alcotest.test_case "warm-up not counted" `Quick test_ys_warmup_not_counted;
        Alcotest.test_case "invalid k" `Quick test_ys_invalid_k;
        Alcotest.test_case "top / to_string" `Quick test_ys_top_and_to_string;
      ] );
  ]
