(* The static-estimation stack (ISSUE 10): Wu–Larus branch heuristics,
   block/edge frequency propagation, the zero-profiling [static] scheme,
   and profile-guided k selection.

   Contracts:

   - Probabilities are distributions: at every block with successors the
     heuristic successor probabilities sum to 1 (to 1e-9), across every
     hand-built program and the whole benchmark suite.

   - Frequencies conserve flow: away from the procedure entry, capped
     loop heads, and irreducible (degraded) procedures, a block's
     frequency equals the sum of its incoming edge frequencies.

   - Degradation is surfaced, not silent: irreducible regions solve via
     the bounded fallback and lint as P113; a cyclic probability that
     would exceed [Freq.cp_cap] is clamped and the head is listed.

   - The static scheme is genuinely zero-profiling: no counters, no
     profiling ops, delay-inert, deterministic, and every prediction
     lands on a statically-armed head of a lint-clean trace.

   - kauto reduces: where Kselect chooses k = 1, net-kauto and
     path-profile-kauto observe exactly like net and path-profile. *)

module Cfg = Hotpath_cfg.Cfg
module Diag = Hotpath_analysis.Diag
module Procgraph = Hotpath_analysis.Procgraph
module Dominators = Hotpath_analysis.Dominators
module Loops = Hotpath_analysis.Loops
module Bounds = Hotpath_analysis.Bounds
module Heuristics = Hotpath_analysis.Heuristics
module Freq = Hotpath_analysis.Freq
module Kselect = Hotpath_analysis.Kselect
module Lint = Hotpath_analysis.Lint
module Trace_lint = Hotpath_trace.Lint
module Recorder = Hotpath_trace.Recorder
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Scheme = Hotpath_prediction.Scheme
module Schemes = Hotpath_prediction.Schemes
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Static = Hotpath_prediction.Static
module Net_kauto = Hotpath_prediction.Net_kauto
module Path_profile_kauto = Hotpath_prediction.Path_profile_kauto
module Replay = Hotpath_prediction.Replay
module Suite = Hotpath_workloads.Suite
module Stats = Hotpath_util.Stats

let has_code code diags = List.exists (fun d -> d.Diag.code = code) diags

let check_feq name expected got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g ~ %.12g" name expected got)
    true
    (Float.abs (expected -. got) <= 1e-9 *. Float.max 1.0 (Float.abs expected))

(* One small recording per benchmark, shared across the suite. *)
let recordings =
  lazy (List.map (fun b -> (b.Suite.b_name, Suite.record ~scale:0.02 b)) Suite.all)

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

(* Loop-free diamond: 0 branches to 1/2, both join at 3, exit. *)
let loop_free () =
  let b = Cfg.Builder.create ~name:"loopfree" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b3 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Branch { taken = b2; fallthrough = b1 });
  Cfg.Builder.set_term b b1 (Cfg.Jump b3);
  Cfg.Builder.set_term b b2 (Cfg.Jump b3);
  Cfg.Builder.set_term b b3 Cfg.Exit;
  Cfg.Builder.finish b

(* A doubly-latched loop: both 1 and 2 branch back to head 0.  Two
   back-edge branches at >= 0.88 each put the raw cyclic probability at
   >= 0.88 + 0.12 * 0.88 = 0.9856 > cp_cap, forcing the cap. *)
let double_latch () =
  let b = Cfg.Builder.create ~name:"doublelatch" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b3 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Jump b1);
  Cfg.Builder.set_term b b1 (Cfg.Branch { taken = b0; fallthrough = b2 });
  Cfg.Builder.set_term b b2 (Cfg.Branch { taken = b0; fallthrough = b3 });
  Cfg.Builder.set_term b b3 Cfg.Exit;
  Cfg.Builder.finish b

(* The cycle {1,2} is entered at both 1 and 2: irreducible. *)
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

(* [depth] reducible nested loops: heads H1..Hn chain inward, latches
   Ln..L1 branch back to their own head or fall outward.  Depth beyond
   Lint.static_depth_threshold must draw P113 while staying reducible
   (no P110). *)
let deep_nest ~depth =
  let b = Cfg.Builder.create ~name:"deepnest" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let heads = Array.init depth (fun _ -> Cfg.Builder.add_block b ~proc:p ~weight:1) in
  let latches =
    Array.init depth (fun _ -> Cfg.Builder.add_block b ~proc:p ~weight:1)
  in
  let exit = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  for i = 0 to depth - 1 do
    Cfg.Builder.set_term b heads.(i)
      (Cfg.Jump (if i = depth - 1 then latches.(depth - 1) else heads.(i + 1)));
    Cfg.Builder.set_term b latches.(i)
      (Cfg.Branch
         {
           taken = heads.(i);
           fallthrough = (if i = 0 then exit else latches.(i - 1));
         })
  done;
  Cfg.Builder.set_term b exit Cfg.Exit;
  Cfg.Builder.finish b

let analyses program ~proc =
  let g = Procgraph.build program ~proc in
  let dom = Dominators.compute g in
  let loops = Loops.analyze dom in
  (g, loops, Heuristics.analyze g loops)

(* ------------------------------------------------------------------ *)
(* Heuristics                                                          *)
(* ------------------------------------------------------------------ *)

let test_combine () =
  check_feq "0.5 is the identity" 0.7 (Heuristics.combine 0.5 0.7);
  check_feq "commutes" (Heuristics.combine 0.8 0.6) (Heuristics.combine 0.6 0.8);
  Alcotest.(check bool) "agreeing evidence strengthens" true
    (Heuristics.combine 0.88 0.8 > 0.88);
  Alcotest.(check bool) "opposing evidence weakens" true
    (Heuristics.combine 0.88 0.2 < 0.88)

let test_diamond_heuristics () =
  let program = diamond_loop () in
  let _, _, h = analyses program ~proc:0 in
  (* The latch 3 takes its back edge: loop-branch evidence, possibly
     reinforced by loop-exit (the fallthrough leaves the loop). *)
  let latch =
    List.find (fun br -> br.Heuristics.br_block = 3) (Heuristics.branches h)
  in
  Alcotest.(check bool) "loop-branch fired" true
    (List.mem Heuristics.Loop_branch latch.Heuristics.br_fired);
  Alcotest.(check bool) "latch taken-prob >= table confidence" true
    (latch.Heuristics.br_taken_prob
     >= Heuristics.confidence Heuristics.Loop_branch -. 1e-9);
  (* The body if at 0 has symmetric arms: only the fallback applies, so
     the forward branch leans not-taken. *)
  let body =
    List.find (fun br -> br.Heuristics.br_block = 0) (Heuristics.branches h)
  in
  Alcotest.(check bool) "body if leans not-taken" true
    (body.Heuristics.br_taken_prob < 0.5);
  Alcotest.(check bool) "probabilities stay in (0,1)" true
    (List.for_all
       (fun br ->
          br.Heuristics.br_taken_prob > 0.0 && br.Heuristics.br_taken_prob < 1.0)
       (Heuristics.branches h))

let check_distributions name program =
  for proc = 0 to Cfg.num_procs program - 1 do
    let g, _, h =
      let g = Procgraph.build program ~proc in
      let dom = Dominators.compute g in
      let loops = Loops.analyze dom in
      (g, loops, Heuristics.analyze g loops)
    in
    for local = 0 to Procgraph.size g - 1 do
      let b = Procgraph.global g local in
      let probs = Heuristics.succ_probs h b in
      Alcotest.(check int)
        (Printf.sprintf "%s b%d: one prob per graph successor" name b)
        (Array.length (Procgraph.succ g local))
        (List.length probs);
      if probs <> [] then begin
        let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 probs in
        check_feq (Printf.sprintf "%s b%d: probs sum to 1" name b) 1.0 total;
        Alcotest.(check bool)
          (Printf.sprintf "%s b%d: probs positive" name b)
          true
          (List.for_all (fun (_, p) -> p > 0.0) probs)
      end
    done
  done

let test_distributions_hand_programs () =
  List.iter
    (fun (name, program) -> check_distributions name program)
    [
      ("diamond", diamond_loop ()); ("loop-free", loop_free ());
      ("double-latch", double_latch ()); ("irreducible", irreducible ());
      ("deep-nest", deep_nest ~depth:17);
    ]

let test_distributions_suite () =
  List.iter
    (fun (bname, (r : Recorder.t)) ->
       check_distributions bname r.Recorder.program)
    (Lazy.force recordings)

(* ------------------------------------------------------------------ *)
(* Frequencies                                                         *)
(* ------------------------------------------------------------------ *)

let test_diamond_freq () =
  let program = diamond_loop () in
  let g, loops, h = analyses program ~proc:0 in
  let pf = Freq.analyze_proc g loops h in
  Alcotest.(check bool) "reducible path, not degraded" false
    (Freq.proc_degraded pf);
  Alcotest.(check (list int)) "no capped heads" [] (Freq.capped_heads pf);
  (match Freq.cyclic_prob pf 0 with
   | None -> Alcotest.fail "head 0 has no cyclic probability"
   | Some cp ->
     Alcotest.(check bool) "cp in (0, cap]" true (cp > 0.0 && cp <= Freq.cp_cap);
     (* The entry heads the loop, so its frequency is the multiplier. *)
     check_feq "entry freq = 1/(1-cp)" (1.0 /. (1.0 -. cp)) (Freq.block_freq pf 0));
  (* Exit is reached exactly once per invocation. *)
  check_feq "exit freq = 1" 1.0 (Freq.block_freq pf 4);
  (* The two arms split the head's flow. *)
  check_feq "arms rejoin"
    (Freq.block_freq pf 0)
    (Freq.block_freq pf 1 +. Freq.block_freq pf 2);
  check_feq "join = head flow" (Freq.block_freq pf 0) (Freq.block_freq pf 3)

let test_double_latch_capped () =
  let program = double_latch () in
  let g, loops, h = analyses program ~proc:0 in
  let pf = Freq.analyze_proc g loops h in
  Alcotest.(check (list int)) "head capped" [ 0 ] (Freq.capped_heads pf);
  (match Freq.cyclic_prob pf 0 with
   | None -> Alcotest.fail "head 0 has no cyclic probability"
   | Some cp -> check_feq "cp clamped to the cap" Freq.cp_cap cp);
  check_feq "multiplier bounded at 1/(1-cap)"
    (1.0 /. (1.0 -. Freq.cp_cap))
    (Freq.block_freq pf 0)

let test_irreducible_degraded () =
  let program = irreducible () in
  let g, loops, h = analyses program ~proc:0 in
  let pf = Freq.analyze_proc g loops h in
  Alcotest.(check bool) "degraded" true (Freq.proc_degraded pf);
  let t = Freq.estimate program in
  Alcotest.(check (list int)) "degraded proc listed" [ 0 ] (Freq.degraded_procs t);
  (* The bounded solver still yields finite, non-negative flow. *)
  for b = 0 to 3 do
    let f = Freq.block_freq pf b in
    Alcotest.(check bool)
      (Printf.sprintf "b%d finite and >= 0" b)
      true
      (Float.is_finite f && f >= 0.0)
  done

(* Flow conservation: away from the entry, capped heads, and degraded
   procedures, inflow equals block frequency, and outflow does wherever
   the block has successors.  Exact modulo float error. *)
let check_conservation name program =
  let t = Freq.estimate program in
  for proc = 0 to Cfg.num_procs program - 1 do
    let pf = Freq.of_proc t proc in
    if not (Freq.proc_degraded pf) then begin
      let g = Procgraph.build program ~proc in
      let reachable = Procgraph.reachable g in
      let capped = Freq.capped_heads pf in
      for local = 0 to Procgraph.size g - 1 do
        let b = Procgraph.global g local in
        if reachable.(local) && not (List.mem b capped) then begin
          let bf = Freq.block_freq pf b in
          let eps = 1e-6 *. Float.max 1.0 bf in
          if local <> Procgraph.entry g then begin
            let inflow =
              Array.fold_left
                (fun acc p ->
                   acc +. Freq.edge_freq pf ~src:(Procgraph.global g p) ~dst:b)
                0.0 (Procgraph.pred g local)
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s b%d: inflow %.9g ~ freq %.9g" name b inflow bf)
              true
              (Float.abs (inflow -. bf) <= eps)
          end;
          let succs = Procgraph.succ g local in
          if Array.length succs > 0 then begin
            let outflow =
              Array.fold_left
                (fun acc s ->
                   acc +. Freq.edge_freq pf ~src:b ~dst:(Procgraph.global g s))
                0.0 succs
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s b%d: outflow %.9g ~ freq %.9g" name b outflow bf)
              true
              (Float.abs (outflow -. bf) <= eps)
          end
        end
      done
    end
  done

let test_conservation_hand_programs () =
  List.iter
    (fun (name, program) -> check_conservation name program)
    [
      ("diamond", diamond_loop ()); ("loop-free", loop_free ());
      ("double-latch", double_latch ()); ("deep-nest", deep_nest ~depth:17);
    ]

let test_conservation_suite () =
  List.iter
    (fun (bname, (r : Recorder.t)) ->
       check_conservation bname r.Recorder.program)
    (Lazy.force recordings)

let test_invocations_and_ranking () =
  List.iter
    (fun (bname, (r : Recorder.t)) ->
       let t = Freq.estimate r.Recorder.program in
       Alcotest.(check bool) (bname ^ ": main invoked at least once") true
         (Freq.invocation_freq t 0 >= 1.0);
       let ranked = Freq.ranked_heads t in
       Alcotest.(check int)
         (bname ^ ": ranking covers the full head set")
         (Bounds.full_head_count (Bounds.static_heads r.Recorder.program))
         (List.length ranked);
       Alcotest.(check bool) (bname ^ ": ranking is descending") true
         (let rec mono = function
            | (_, a) :: ((_, b) :: _ as tl) -> a >= b && mono tl
            | _ -> true
          in
          mono ranked);
       Alcotest.(check bool) (bname ^ ": flows finite and non-negative") true
         (List.for_all (fun (_, f) -> Float.is_finite f && f >= 0.0) ranked))
    (Lazy.force recordings)

(* ------------------------------------------------------------------ *)
(* Lint P113                                                           *)
(* ------------------------------------------------------------------ *)

let test_p113_irreducible () =
  let diags = Lint.check_program (irreducible ()) in
  Alcotest.(check bool) "P110 fired" true (has_code "P110" diags);
  Alcotest.(check bool) "P113 fired" true (has_code "P113" diags);
  Alcotest.(check bool) "P113 is a warning" true
    (List.for_all
       (fun d -> d.Diag.code <> "P113" || d.Diag.severity = Diag.Warning)
       diags)

let test_p113_deep_nest () =
  let deep = Lint.check_program (deep_nest ~depth:(Lint.static_depth_threshold + 1)) in
  Alcotest.(check bool) "over-deep nest draws P113" true (has_code "P113" deep);
  Alcotest.(check bool) "still reducible: no P110" false (has_code "P110" deep);
  let shallow = Lint.check_program (deep_nest ~depth:Lint.static_depth_threshold) in
  Alcotest.(check bool) "at the threshold: clean" false (has_code "P113" shallow)

let test_p113_clean_programs () =
  List.iter
    (fun (name, program) ->
       Alcotest.(check bool) (name ^ ": no P113") false
         (has_code "P113" (Lint.check_program program)))
    [ ("diamond", diamond_loop ()); ("loop-free", loop_free ()) ]

(* ------------------------------------------------------------------ *)
(* The static scheme                                                   *)
(* ------------------------------------------------------------------ *)

let armed_heads program =
  let ranked = Freq.ranked_heads (Freq.estimate program) in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 ranked in
  List.filter_map
    (fun (h, f) ->
       if total > 0.0 && f >= Suite.hot_threshold *. total then Some h else None)
    ranked

let test_static_zero_profiling () =
  let total_predictions = ref 0 in
  List.iter
    (fun (bname, (r : Recorder.t)) ->
       let outcome = Replay.run (module Static) ~delay:50 r in
       Alcotest.(check int) (bname ^ ": zero counters") 0
         outcome.Replay.counter_space;
       Alcotest.(check int) (bname ^ ": zero profiling ops") 0
         outcome.Replay.profiling_ops;
       total_predictions :=
         !total_predictions + Array.length outcome.Replay.predictions;
       (* Exactly one prediction per armed head the trace actually
          arrives at via a loop head — no more (each head fires once),
          no fewer (the first arrival's path cannot be predicted yet).
          Benchmarks whose estimated-hot heads are never visited
          genuinely predict nothing: the zero-profiling floor. *)
       let armed = armed_heads r.Recorder.program in
       let arrived_armed = Hashtbl.create 16 in
       Array.iteri
         (fun i pid ->
            if Char.code (Bytes.get r.Recorder.arrivals i) = 0 then begin
              let head = Path.head (Path_table.path r.Recorder.table pid) in
              if List.mem head armed then Hashtbl.replace arrived_armed head ()
            end)
         r.Recorder.instances;
       Alcotest.(check int)
         (bname ^ ": one prediction per arrived armed head")
         (Hashtbl.length arrived_armed)
         (Array.length outcome.Replay.predictions);
       let seen = Hashtbl.create 16 in
       Array.iter
         (fun (p : Replay.prediction) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: target %d in table" bname p.Replay.target)
              true
              (p.Replay.target >= 0
               && p.Replay.target < Path_table.size r.Recorder.table);
            let head = Path.head (Path_table.path r.Recorder.table p.Replay.target) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: head %d armed" bname head)
              true (List.mem head armed);
            Alcotest.(check bool)
              (Printf.sprintf "%s: head %d fires once" bname head)
              false (Hashtbl.mem seen head);
            Hashtbl.replace seen head ())
         outcome.Replay.predictions;
       (* The predictions ride a lint-clean trace. *)
       let diags =
         Trace_lint.check_parts ~program:r.Recorder.program ~table:r.Recorder.table
           ~instances:r.Recorder.instances ~arrivals:r.Recorder.arrivals
       in
       Alcotest.(check bool) (bname ^ ": trace T2xx-error-clean") true
         (List.for_all (fun d -> d.Diag.severity <> Diag.Error) diags))
    (Lazy.force recordings);
  Alcotest.(check bool) "suite-wide: static predicts somewhere" true
    (!total_predictions > 0)

let test_static_delay_inert_and_deterministic () =
  let r = List.assoc "compress" (Lazy.force recordings) in
  let run delay = Replay.run (module Static) ~delay r in
  let a = run 1 and b = run 100 and a' = run 1 in
  Alcotest.(check bool) "deterministic" true
    (a.Replay.predictions = a'.Replay.predictions);
  Alcotest.(check bool) "delay-inert" true
    (a.Replay.predictions = b.Replay.predictions);
  Alcotest.(check (array int)) "captured flow identical across delays"
    a.Replay.captured b.Replay.captured

(* [create ~program] is a session's program-wide stage: a sweep over
   all the default delays must pay for one estimate, as a one-delay
   replay does, and not one per lane.  Allocation is deterministic, so
   the gap between the two replays' minor words is exact: the extra
   lanes' own state and traffic, far below half an estimate on a small
   recording of the largest program, where one estimate per extra lane
   would exceed it many times over. *)
let test_lanes_share_program_stage () =
  let r = List.assoc "gcc" (Lazy.force recordings) in
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let estimate = words (fun () -> Freq.estimate r.Recorder.program) in
  let delays = Hotpath_metrics.Sweep.default_delays in
  List.iter
    (fun (name, scheme) ->
       let one = words (fun () -> Replay.run scheme ~delay:(List.hd delays) r) in
       let many = words (fun () -> Replay.run_many scheme ~delays r) in
       Alcotest.(check bool)
         (Printf.sprintf "%s: %d lanes cost %.0f words over one lane, estimate %.0f"
            name (List.length delays) (many -. one) estimate)
         true
         (many -. one < estimate /. 2.0))
    [ ("static", (module Static : Scheme.S)); ("net-kauto", (module Net_kauto : Scheme.S)) ]

(* ------------------------------------------------------------------ *)
(* Kselect                                                             *)
(* ------------------------------------------------------------------ *)

let test_kselect_bounds_suite () =
  List.iter
    (fun (bname, (r : Recorder.t)) ->
       let ks = Kselect.analyze (Freq.estimate r.Recorder.program) in
       let budget = Bounds.Exact Kselect.default_budget in
       List.iter
         (fun (c : Kselect.choice) ->
            let label = Printf.sprintf "%s head %d" bname c.Kselect.head in
            Alcotest.(check bool) (label ^ ": k in range") true
              (c.Kselect.k >= 1 && c.Kselect.k <= Kselect.default_max_k);
            Alcotest.(check int) (label ^ ": k_for agrees") c.Kselect.k
              (Kselect.k_for ks c.Kselect.head);
            if c.Kselect.k > 1 then begin
              Alcotest.(check bool)
                (label ^ ": enough iterations to fill the window")
                true
                (c.Kselect.iterations >= 2.0 *. float_of_int c.Kselect.k);
              (* paths^k within the window budget, in saturating space. *)
              let power =
                let rec go acc i =
                  if i = 0 then acc
                  else
                    go
                      (Bounds.count_mul ~cap:max_int acc c.Kselect.body_paths)
                      (i - 1)
                in
                go (Bounds.Exact 1) c.Kselect.k
              in
              Alcotest.(check bool) (label ^ ": window count within budget") true
                (Bounds.count_le power budget)
            end)
         (Kselect.choices ks))
    (Lazy.force recordings)

let test_kselect_hand_programs () =
  let diamond = diamond_loop () in
  let ks = Kselect.analyze (Freq.estimate diamond) in
  (* One hot, simple loop: ~30 expected iterations and 4 body paths let
     the deepest window through. *)
  Alcotest.(check int) "diamond head takes max k" Kselect.default_max_k
    (Kselect.k_for ks 0);
  Alcotest.(check int) "non-head stays at 1" 1 (Kselect.k_for ks 1);
  let lf = Kselect.analyze (Freq.estimate (loop_free ())) in
  Alcotest.(check int) "loop-free: no choices" 0
    (List.length (Kselect.choices lf));
  Alcotest.(check int) "loop-free: max k is 1" 1 (Kselect.max_selected lf);
  (* A one-window budget forces k = 1 even on the friendly loop. *)
  let tight = Kselect.analyze ~budget:1 (Freq.estimate diamond) in
  Alcotest.(check int) "budget 1 forces k = 1" 1 (Kselect.max_selected tight);
  let capped = Kselect.analyze ~max_k:1 (Freq.estimate diamond) in
  Alcotest.(check int) "max_k 1 forces k = 1" 1 (Kselect.max_selected capped)

(* ------------------------------------------------------------------ *)
(* kauto reduction at k = 1                                            *)
(* ------------------------------------------------------------------ *)

(* Drive two schemes over the same synthetic observation stream and
   compare every output.  On a loop-free program Kselect pins k = 1
   everywhere, so the kauto schemes must shadow their fixed bases
   decision-for-decision. *)
let drive (module S : Scheme.S) ~delay ~program stream =
  let t = S.create ~delay ~program in
  let outputs =
    List.map
      (fun (head, arrival, path_id) ->
         S.observe t ~head ~arrival ~path_id ~n_branches:2 ~n_blocks:3)
      stream
  in
  (outputs, S.counter_space t, S.collection_ops t)

let synthetic_stream =
  (* Entries, re-arrivals at two heads, and a continuation: enough to
     trip a delay-3 counter several times over. *)
  let at h pid = (h, Path.Loop_head, pid) in
  [
    (0, Path.Entry, 0); at 1 1; at 1 1; at 1 1; at 1 2; at 3 4; at 3 4;
    (0, Path.Continuation, 5); at 1 1; at 1 1; at 1 2; at 1 2; at 3 4;
    at 3 4; at 3 4; (0, Path.Entry, 0); at 1 1; at 1 2; at 1 1; at 3 4;
  ]

let test_kauto_reduces_on_k1 () =
  let program = loop_free () in
  List.iter
    (fun delay ->
       List.iter
         (fun (kname, kauto, base_name, base) ->
            let got = drive kauto ~delay ~program synthetic_stream in
            let expected = drive base ~delay ~program synthetic_stream in
            let go, gc, gcol = got and eo, ec, ecol = expected in
            Alcotest.(check (list (option int)))
              (Printf.sprintf "%s == %s decisions, delay %d" kname base_name delay)
              eo go;
            Alcotest.(check int)
              (Printf.sprintf "%s == %s counters, delay %d" kname base_name delay)
              ec gc;
            Alcotest.(check int)
              (Printf.sprintf "%s == %s collection, delay %d" kname base_name delay)
              ecol gcol)
         [
           ( "net-kauto",
             (module Net_kauto : Scheme.S),
             "net",
             (module Net : Scheme.S) );
           ( "path-profile-kauto",
             (module Path_profile_kauto : Scheme.S),
             "path-profile",
             (module Path_profile : Scheme.S) );
         ])
    [ 1; 2; 3 ]

let test_kauto_replays_deterministically () =
  let r = List.assoc "compress" (Lazy.force recordings) in
  List.iter
    (fun (name, scheme) ->
       let a = Replay.run scheme ~delay:7 r in
       let b = Replay.run scheme ~delay:7 r in
       Alcotest.(check bool) (name ^ ": deterministic") true
         (a.Replay.predictions = b.Replay.predictions
          && a.Replay.counter_space = b.Replay.counter_space
          && a.Replay.profiling_ops = b.Replay.profiling_ops);
       Alcotest.(check bool) (name ^ ": predicts something") true
         (Array.length a.Replay.predictions > 0))
    [
      ("net-kauto", (module Net_kauto : Scheme.S));
      ("path-profile-kauto", (module Path_profile_kauto : Scheme.S));
    ]

(* ------------------------------------------------------------------ *)
(* Grammar and rank statistics                                         *)
(* ------------------------------------------------------------------ *)

let test_new_scheme_names () =
  List.iter
    (fun name ->
       match Schemes.of_name name with
       | Ok packed ->
         Alcotest.(check string) ("round-trips " ^ name) name (Scheme.name packed)
       | Error e -> Alcotest.failf "%s rejected: %s" name e)
    [ "static"; "net-kauto"; "path-profile-kauto" ];
  match Schemes.of_name "static-k2" with
  | Ok _ -> Alcotest.fail "\"static-k2\" accepted"
  | Error _ -> ()

let test_spearman () =
  let s = Stats.spearman in
  check_feq "identical ranking" 1.0 (s [| 1.; 2.; 3.; 4. |] [| 10.; 20.; 30.; 40. |]);
  check_feq "reversed ranking" (-1.0) (s [| 1.; 2.; 3. |] [| 9.; 5.; 1. |]);
  check_feq "constant side" 0.0 (s [| 1.; 1.; 1. |] [| 1.; 2.; 3. |]);
  check_feq "short input" 0.0 (s [| 1. |] [| 2. |]);
  (* Ties share fractional ranks: monotone-with-ties still correlates
     perfectly against itself. *)
  check_feq "ties against self" 1.0 (s [| 1.; 2.; 2.; 3. |] [| 1.; 2.; 2.; 3. |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.spearman: length mismatch") (fun () ->
      ignore (s [| 1. |] [| 1.; 2. |]))

let suites =
  [
    ( "static.heuristics",
      [
        Alcotest.test_case "Dempster-Shafer combination" `Quick test_combine;
        Alcotest.test_case "diamond branch evidence" `Quick
          test_diamond_heuristics;
        Alcotest.test_case "distributions: hand programs" `Quick
          test_distributions_hand_programs;
        Alcotest.test_case "distributions: benchmark suite" `Quick
          test_distributions_suite;
      ] );
    ( "static.freq",
      [
        Alcotest.test_case "diamond closed form" `Quick test_diamond_freq;
        Alcotest.test_case "double latch hits the cp cap" `Quick
          test_double_latch_capped;
        Alcotest.test_case "irreducible degrades, stays finite" `Quick
          test_irreducible_degraded;
        Alcotest.test_case "flow conservation: hand programs" `Quick
          test_conservation_hand_programs;
        Alcotest.test_case "flow conservation: benchmark suite" `Quick
          test_conservation_suite;
        Alcotest.test_case "invocations and head ranking" `Quick
          test_invocations_and_ranking;
      ] );
    ( "static.lint",
      [
        Alcotest.test_case "P113 on irreducible" `Quick test_p113_irreducible;
        Alcotest.test_case "P113 on over-deep nesting" `Quick
          test_p113_deep_nest;
        Alcotest.test_case "clean programs stay clean" `Quick
          test_p113_clean_programs;
      ] );
    ( "static.scheme",
      [
        Alcotest.test_case "zero profiling, armed heads only" `Quick
          test_static_zero_profiling;
        Alcotest.test_case "delay-inert and deterministic" `Quick
          test_static_delay_inert_and_deterministic;
        Alcotest.test_case "lanes share the program-wide stage" `Quick
          test_lanes_share_program_stage;
      ] );
    ( "static.kselect",
      [
        Alcotest.test_case "choices within bounds across suite" `Quick
          test_kselect_bounds_suite;
        Alcotest.test_case "hand programs and budget clamps" `Quick
          test_kselect_hand_programs;
      ] );
    ( "static.kauto",
      [
        Alcotest.test_case "k=1 shadows the fixed bases" `Quick
          test_kauto_reduces_on_k1;
        Alcotest.test_case "replay deterministic on the suite" `Quick
          test_kauto_replays_deterministically;
      ] );
    ( "static.grammar",
      [
        Alcotest.test_case "new names round-trip" `Quick test_new_scheme_names;
        Alcotest.test_case "spearman rank correlation" `Quick test_spearman;
      ] );
  ]
