(* The allocation-free recorder pinned to the list-based reference in
   Ref_recorder: identical path tables (signature, blocks, n_instrs,
   n_branches, end_kind, in id order), instance ids, arrival bytes and VM
   statistics on hand-built programs, generated workloads, the nine
   benchmarks, Figure 1, the phased demo, and every budget cut point.
   The live Dynamo driver, which runs the same VM -> segmenter -> intern
   loop, must equal the engine replaying each recording, under all four
   Figure 5 cost families and under a small LRU cache (the stepper's
   per-path arrays grow behind the online path table).  The Decider's
   precomputed draws are pinned to Prng's one-shot ones. *)

module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Behavior = Hotpath_vm.Behavior
module Recorder = Hotpath_trace.Recorder
module Suite = Hotpath_workloads.Suite
module Generator = Hotpath_workloads.Generator
module Figure1 = Hotpath_workloads.Figure1
module Engine = Hotpath_dynamo.Engine
module Online = Hotpath_dynamo.Online
module Cost_model = Hotpath_dynamo.Cost_model
module Net = Hotpath_prediction.Net
module Scheme = Hotpath_prediction.Scheme
module Prng = Hotpath_util.Prng

let engine_config ?cache_capacity ?cache_eviction name scheme =
  Engine.config ~cost:Cost_model.default ?cache_capacity ?cache_eviction ~scheme
    ~scheme_costs:(Engine.costs_for ~scheme:name Cost_model.default) ~delay:10 ()

(* Figure 5's schemes, each with its cost family, and NET with a cache
   small enough to evict. *)
let engine_configs =
  [
    ("net", engine_config "net" (module Net : Scheme.S));
    ("path-profile", engine_config "path-profile" (module Hotpath_prediction.Path_profile));
    ("net-k2", engine_config "net-k2" (Hotpath_prediction.Net_k.make 2));
    ("static", engine_config "static" (module Hotpath_prediction.Static));
    ( "net lru 4",
      engine_config ~cache_capacity:4 ~cache_eviction:Hotpath_dynamo.Fragment_cache.Evict_lru
        "net" (module Net) );
  ]

(* The library recording must equal the reference's; the online driver
   must equal the engine over that recording. *)
let check_case ?max_steps ?max_paths name program behavior ~seed =
  let r = Recorder.record ?max_steps ?max_paths program behavior ~rng:(Prng.create ~seed) in
  let reference =
    Ref_recorder.record ?max_steps ?max_paths program behavior ~rng:(Prng.create ~seed)
  in
  (match Ref_recorder.diff r reference with
   | None -> ()
   | Some d -> Alcotest.failf "%s: recorder differs from the reference: %s" name d);
  List.iter
    (fun (label, config) ->
       let online =
         Online.run ?max_steps ?max_paths ~config program behavior ~rng:(Prng.create ~seed)
       in
       let name = Printf.sprintf "%s (%s)" name label in
       Alcotest.(check int) (name ^ ": online instances") (Recorder.num_instances r)
         online.Online.o_instances;
       Alcotest.(check int) (name ^ ": online paths") (Recorder.num_paths r)
         online.Online.o_paths;
       Alcotest.(check bool) (name ^ ": online result = engine over the recording") true
         (compare online.Online.o_result (Engine.run config r) = 0))
    engine_configs

(* ------------------------------------------------------------------ *)
(* Hand-built programs                                                 *)
(* ------------------------------------------------------------------ *)

(* A loop of [diamonds] two-way decisions, more than the signature cap,
   so paths end with [Cap] and continue. *)
let cap_program ~diamonds =
  let b = Cfg.Builder.create ~name:"cap" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let block () = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let entry = block () in
  let head = block () in
  Cfg.Builder.set_term b entry (Cfg.Jump head);
  let cursor = ref head in
  for _ = 1 to diamonds do
    let br = block () in
    let arm_f = block () in
    let arm_t = block () in
    let join = block () in
    Cfg.Builder.set_term b !cursor (Cfg.Jump br);
    Cfg.Builder.set_term b br (Cfg.Branch { taken = arm_t; fallthrough = arm_f });
    Cfg.Builder.set_term b arm_f (Cfg.Jump join);
    Cfg.Builder.set_term b arm_t (Cfg.Jump join);
    cursor := join
  done;
  let latch = block () in
  let exit = block () in
  Cfg.Builder.set_term b !cursor (Cfg.Jump latch);
  Cfg.Builder.set_term b latch (Cfg.Branch { taken = head; fallthrough = exit });
  Cfg.Builder.set_term b exit Cfg.Exit;
  Cfg.Builder.finish b

(* Flat and skewed diamonds; the latch (the one backward branch) loops. *)
let cap_behavior program =
  let behavior = Behavior.create program () in
  Array.iter
    (fun (blk : Cfg.block) ->
       match blk.Cfg.term with
       | Cfg.Branch { taken; _ } when taken <= blk.Cfg.id ->
         Behavior.set_branch behavior blk.Cfg.id (Behavior.Bias 0.95)
       | Cfg.Branch _ ->
         Behavior.set_branch behavior blk.Cfg.id
           (Behavior.Bias (if blk.Cfg.id mod 3 = 0 then 0.5 else 0.9))
       | _ -> ())
    program.Cfg.blocks;
  behavior

(* A loop inside a helper: the path leaving the helper crosses its
   unmatched forward return, whose target joins the signature. *)
let crossed_return () =
  let b = Cfg.Builder.create ~name:"crossed_return" in
  let main = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let helper = Cfg.Builder.add_proc b ~name:"helper" in
  let b1 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:helper ~weight:2 in
  let b3 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b4 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let b5 = Cfg.Builder.add_block b ~proc:main ~weight:3 in
  let b6 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Call { callee = helper; return_to = b4 });
  Cfg.Builder.set_term b b1 (Cfg.Jump b2);
  Cfg.Builder.set_term b b2 (Cfg.Branch { taken = b1; fallthrough = b3 });
  Cfg.Builder.set_term b b3 Cfg.Return;
  Cfg.Builder.set_term b b4 (Cfg.Jump b5);
  Cfg.Builder.set_term b b5 (Cfg.Branch { taken = b0; fallthrough = b6 });
  Cfg.Builder.set_term b b6 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let behavior = Behavior.create program () in
  Behavior.set_branch behavior b2 (Behavior.Bias 0.7);
  Behavior.set_branch behavior b5 (Behavior.Bias 0.97);
  (program, behavior)

let test_hand_built () =
  let case name ?max_steps (program, behavior) ~seed =
    check_case ?max_steps name program behavior ~seed
  in
  let drop3 (p, b, _) = (p, b) in
  case "simple loop" (drop3 (Fixtures.simple_loop ~iterations:7 ())) ~seed:1;
  case "matched returns" (drop3 (Fixtures.call_loop ~iterations:9 ())) ~seed:2;
  case "recursion" ~max_steps:5_000 (drop3 (Fixtures.recursive ~depth:5 ())) ~seed:3;
  case "crossed returns" ~max_steps:20_000 (crossed_return ()) ~seed:4;
  case "weighted dispatch" ~max_steps:20_000
    (drop3 (Fixtures.indirect_loop ~weights:[| 0.7; 0.3 |] ~exit_prob:0.001 ()))
    ~seed:5;
  let program, behavior, (_, _, b2, _, _, _, _) =
    Fixtures.indirect_loop ~exit_prob:0.001 ()
  in
  Behavior.set_indirect behavior b2 Behavior.Uniform_target;
  case "uniform dispatch" ~max_steps:20_000 (program, behavior) ~seed:6;
  Behavior.set_indirect behavior b2
    (Behavior.Phased_target [| (3_000, [| 1.0; 0.2 |]); (max_int, [| 0.1; 1.0 |]) |]);
  case "phased dispatch" ~max_steps:20_000 (program, behavior) ~seed:7;
  let program = cap_program ~diamonds:80 in
  case "62-branch cap" ~max_steps:60_000 (program, cap_behavior program) ~seed:8

let test_cap_reached () =
  (* The cap program really exercises the cap. *)
  let program = cap_program ~diamonds:80 in
  let r =
    Recorder.record ~max_steps:20_000 program (cap_behavior program)
      ~rng:(Prng.create ~seed:8)
  in
  Alcotest.(check bool) "some path ends at the cap" true
    (Array.exists
       (fun p -> p.Hotpath_trace.Path.end_kind = Hotpath_trace.Path.Cap)
       (Hotpath_trace.Path_table.paths r.Recorder.table))

(* ------------------------------------------------------------------ *)
(* Benchmarks, Figure 1, the phased demo                                *)
(* ------------------------------------------------------------------ *)

(* [Suite.record]'s budgets and seed derivation. *)
let suite_case ~scale (b : Suite.benchmark) =
  let program, behavior = Generator.build b.Suite.b_spec ~seed:b.Suite.b_seed in
  let max_paths = max 1000 (int_of_float (scale *. float_of_int b.Suite.b_flow)) in
  (program, behavior, max_paths, b.Suite.b_seed * 7919)

let test_benchmarks () =
  List.iter
    (fun (b : Suite.benchmark) ->
       let program, behavior, max_paths, seed = suite_case ~scale:0.01 b in
       check_case b.Suite.b_name ~max_paths ~max_steps:(max_paths * 200) program behavior
         ~seed;
       (* Suite.record is the recorder with these parameters. *)
       let reference =
         Ref_recorder.record ~max_paths ~max_steps:(max_paths * 200) program behavior
           ~rng:(Prng.create ~seed)
       in
       match Ref_recorder.diff (Suite.record ~scale:0.01 b) reference with
       | None -> ()
       | Some d -> Alcotest.failf "Suite.record %s: %s" b.Suite.b_name d)
    Suite.all

let test_figure1 () =
  List.iter
    (fun (name, config) ->
       let program, behavior = Figure1.build ~config () in
       check_case ("figure1 " ^ name) ~max_steps:30_000 program behavior ~seed:11)
    [ ("dominant", Figure1.dominant); ("flat", Figure1.flat) ]

let test_phased_demo () =
  let max_paths = 20_000 and seed = 23 in
  let program, behavior = Generator.build Suite.phased_demo ~seed in
  check_case "phased demo" ~max_paths ~max_steps:(max_paths * 200) program behavior
    ~seed:(seed + 6);
  let reference =
    Ref_recorder.record ~max_paths ~max_steps:(max_paths * 200) program behavior
      ~rng:(Prng.create ~seed:(seed + 6))
  in
  match Ref_recorder.diff (Suite.record_phased ~max_paths ~seed ()) reference with
  | None -> ()
  | Some d -> Alcotest.failf "Suite.record_phased: %s" d

(* ------------------------------------------------------------------ *)
(* Cut points                                                          *)
(* ------------------------------------------------------------------ *)

let test_cut_points () =
  let li = Suite.find_exn "li" in
  let program, behavior, _, seed = suite_case ~scale:0.01 li in
  List.iter
    (fun max_paths ->
       check_case (Printf.sprintf "li max_paths=%d" max_paths) ~max_paths program behavior
         ~seed)
    [ 0; 1; 2; 17; 999 ];
  List.iter
    (fun max_steps ->
       check_case (Printf.sprintf "li max_steps=%d" max_steps) ~max_steps program behavior
         ~seed)
    [ 0; 1; 2; 3; 50; 4_321 ];
  let cap = cap_program ~diamonds:80 in
  List.iter
    (fun max_steps ->
       check_case (Printf.sprintf "cap max_steps=%d" max_steps) ~max_steps cap
         (cap_behavior cap) ~seed:8)
    [ 100; 128; 129; 130; 251 ];
  (* Exit exactly at the fuel limit, and one step past it. *)
  let program, behavior, _ = Fixtures.simple_loop ~iterations:3 () in
  List.iter
    (fun max_steps ->
       check_case (Printf.sprintf "exit at max_steps=%d" max_steps) ~max_steps program
         behavior ~seed:1)
    [ 7; 8; 9 ]

(* ------------------------------------------------------------------ *)
(* Generated workloads                                                 *)
(* ------------------------------------------------------------------ *)

let prop_generated_equal_reference =
  QCheck.Test.make ~name:"recorder == reference on generated programs" ~count:40
    QCheck.(pair Test_properties.arb_workload (int_range 0 3_000))
    (fun ((spec, seed), max_paths) ->
       let program, behavior = Generator.build spec ~seed in
       check_case "generated" ~max_steps:15_000 program behavior ~seed:(seed + 1);
       check_case "generated, cut" ~max_steps:15_000 ~max_paths program behavior
         ~seed:(seed + 1);
       true)

(* ------------------------------------------------------------------ *)
(* Precomputed draws                                                   *)
(* ------------------------------------------------------------------ *)

(* One indirect block dispatching to [n] targets that all jump back. *)
let dispatch_program n =
  let b = Cfg.Builder.create ~name:"dispatch" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let d = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let targets = Array.init n (fun _ -> Cfg.Builder.add_block b ~proc:p ~weight:1) in
  Cfg.Builder.set_term b d (Cfg.Indirect targets);
  Array.iter (fun t -> Cfg.Builder.set_term b t (Cfg.Jump d)) targets;
  (Cfg.Builder.finish b, d, targets)

let gen_weights =
  QCheck.Gen.(
    let* n = 1 -- 9 in
    let* w = array_repeat n (oneof [ return 0.0; float_range 0.0 10.0; float_range 0.0 1e-6 ]) in
    let* k = 0 -- (n - 1) in
    (* At least one positive weight. *)
    return (Array.mapi (fun i x -> if i = k then x +. 0.5 else x) w))

let prop_decider_equals_pick_weighted =
  QCheck.Test.make ~name:"Decider weighted picks == Prng.pick_weighted" ~count:200
    QCheck.(make ~print:Print.(pair (array float) int)
              Gen.(pair gen_weights (0 -- 1_000_000)))
    (fun (weights, seed) ->
       let program, d, targets = dispatch_program (Array.length weights) in
       let behavior = Behavior.create program () in
       Behavior.set_indirect behavior d (Behavior.Weighted_target weights);
       let decider = Behavior.Decider.create behavior ~rng:(Prng.create ~seed) in
       let rng = Prng.create ~seed in
       List.for_all
         (fun step ->
            Behavior.Decider.decide_indirect decider d ~targets ~step
            = targets.(Prng.pick_weighted rng ~weights))
         (List.init 50 (fun i -> i + 1)))

let prop_phased_decider_equals_pick_weighted =
  QCheck.Test.make ~name:"Decider phased picks == Prng.pick_weighted by phase"
    ~count:100
    QCheck.(make Gen.(triple gen_weights gen_weights (0 -- 1_000_000)))
    (fun (w1, w2, seed) ->
       let n = min (Array.length w1) (Array.length w2) in
       let w1 = Array.sub w1 0 n and w2 = Array.sub w2 0 n in
       let w1 = if Array.fold_left ( +. ) 0.0 w1 > 0.0 then w1 else Array.make n 1.0 in
       let w2 = if Array.fold_left ( +. ) 0.0 w2 > 0.0 then w2 else Array.make n 1.0 in
       let program, d, targets = dispatch_program n in
       let behavior = Behavior.create program () in
       Behavior.set_indirect behavior d (Behavior.Phased_target [| (20, w1); (max_int, w2) |]);
       let decider = Behavior.Decider.create behavior ~rng:(Prng.create ~seed) in
       let rng = Prng.create ~seed in
       List.for_all
         (fun step ->
            let weights = if step < 20 then w1 else w2 in
            Behavior.Decider.decide_indirect decider d ~targets ~step
            = targets.(Prng.pick_weighted rng ~weights))
         (List.init 40 (fun i -> (3 * i) + 1)))

(* The Decider's compiled branch models against the models' definitions
   evaluated directly: a phased model scans its schedule, a probability
   draws a float. *)
let rec reference_branch rng ~hist ~count ~step = function
  | Behavior.Always v -> v
  | Behavior.Bias p -> Prng.bool rng ~p
  | Behavior.Correlated { bits; taken_prob } ->
    Prng.bool rng ~p:taken_prob.(hist land ((1 lsl bits) - 1))
  | Behavior.Periodic pattern -> pattern.(count mod Array.length pattern)
  | Behavior.Phased schedule ->
    let rec find i =
      if i = Array.length schedule - 1 || step < fst schedule.(i) then snd schedule.(i)
      else find (i + 1)
    in
    reference_branch rng ~hist ~count ~step (find 0)

let gen_branch_model =
  QCheck.Gen.(
    let prob = oneof [ float_range 0.0 1.0; oneofl [ 0.0; 1.0; 0.5 ] ] in
    let leaf =
      oneof
        [
          map (fun v -> Behavior.Always v) bool;
          map (fun p -> Behavior.Bias p) prob;
          (let* bits = 1 -- 3 in
           map
             (fun taken_prob -> Behavior.Correlated { bits; taken_prob })
             (array_repeat (1 lsl bits) prob));
          map (fun a -> Behavior.Periodic a) (array_size (1 -- 5) bool);
        ]
    in
    let phased inner =
      let* n = 1 -- 4 in
      let* gaps = list_repeat n (1 -- 30) in
      let* models = list_repeat n inner in
      let thresholds = List.rev (snd (List.fold_left (fun (at, acc) g -> (at + g, (at + g) :: acc)) (0, []) gaps)) in
      return (Behavior.Phased (Array.of_list (List.combine thresholds models)))
    in
    oneof [ leaf; phased leaf; phased (oneof [ leaf; phased leaf ]) ])

let prop_decider_branch_equals_models =
  QCheck.Test.make ~name:"Decider branch outcomes == the models evaluated directly"
    ~count:300
    QCheck.(make Gen.(triple gen_branch_model (0 -- 1_000_000) (list_repeat 60 (0 -- 4))))
    (fun (model, seed, gaps) ->
       let b = Cfg.Builder.create ~name:"branch" in
       let p = Cfg.Builder.add_proc b ~name:"main" in
       let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
       let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
       Cfg.Builder.set_term b b0 (Cfg.Branch { taken = b0; fallthrough = b1 });
       Cfg.Builder.set_term b b1 (Cfg.Jump b0);
       let program = Cfg.Builder.finish b in
       let behavior = Behavior.create program () in
       Behavior.set_branch behavior b0 model;
       let decider = Behavior.Decider.create behavior ~rng:(Prng.create ~seed) in
       let rng = Prng.create ~seed in
       let hist = ref 0 and step = ref 0 in
       List.for_all Fun.id
         (List.mapi
            (fun count gap ->
               step := !step + gap;
               let expected = reference_branch rng ~hist:!hist ~count ~step:!step model in
               hist := ((!hist lsl 1) lor Bool.to_int expected) land 0xFFFF;
               Behavior.Decider.decide_branch decider b0 ~step:!step = expected)
            gaps))

(* [Prng.bool] decides on an integer cutoff; its definition is the
   float draw compared with [p], with no draw at the clamped ends. *)
let prop_bernoulli_equals_float_draw =
  QCheck.Test.make ~name:"Prng.bool (integer cutoff) == float draw < p" ~count:300
    QCheck.(
      make ~print:Print.(pair float int)
        Gen.(
          pair
            (oneof
               [ float_range 0.0 1.0; oneofl [ 0.0; 1.0; 0.5; 1e-300; 1.0 -. epsilon_float;
                                               -0.5; 1.5; 0x1p-53; 0x1.fffffffffffffp-1 ] ])
            (0 -- 1_000_000)))
    (fun (p, seed) ->
       let a = Prng.create ~seed and b = Prng.create ~seed in
       let reference () =
         if p <= 0.0 then false else if p >= 1.0 then true else Prng.float a < p
       in
       let cutoff = Prng.bernoulli_cutoff ~p in
       List.for_all
         (fun i ->
            let expected = reference () in
            expected = (if i mod 2 = 0 then Prng.bool b ~p else Prng.bernoulli b ~cutoff))
         (List.init 64 Fun.id)
       && Int64.equal (Prng.next_int64 a) (Prng.next_int64 b))

let suites =
  [
    ( "trace.recorder_diff",
      [
        Alcotest.test_case "hand-built programs" `Quick test_hand_built;
        Alcotest.test_case "cap program reaches the cap" `Quick test_cap_reached;
        Alcotest.test_case "nine benchmarks at scale 0.01" `Quick test_benchmarks;
        Alcotest.test_case "figure 1 dominant and flat" `Quick test_figure1;
        Alcotest.test_case "phased demo" `Quick test_phased_demo;
        Alcotest.test_case "max_paths and fuel cut points" `Quick test_cut_points;
        QCheck_alcotest.to_alcotest prop_generated_equal_reference;
        QCheck_alcotest.to_alcotest prop_decider_equals_pick_weighted;
        QCheck_alcotest.to_alcotest prop_phased_decider_equals_pick_weighted;
        QCheck_alcotest.to_alcotest prop_decider_branch_equals_models;
        QCheck_alcotest.to_alcotest prop_bernoulli_equals_float_draw;
      ] );
  ]
