(* Tests for the Dynamo simulator: cost model, fragment cache, engine. *)

module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path
module Recorder = Hotpath_trace.Recorder
module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Cost_model = Hotpath_dynamo.Cost_model
module Fragment_cache = Hotpath_dynamo.Fragment_cache
module Engine = Hotpath_dynamo.Engine
module Generator = Hotpath_workloads.Generator
module Prng = Hotpath_util.Prng

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_model_default_valid () =
  Alcotest.(check bool) "default valid" true (Cost_model.validate Cost_model.default = Ok ())

let test_cost_model_validation () =
  let bad name model =
    match Cost_model.validate model with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: expected validation error" name
  in
  bad "zero native"
    { Cost_model.default with Cost_model.native_cycles_per_instr = 0.0 };
  bad "interp not slower"
    { Cost_model.default with Cost_model.interp_cycles_per_instr = 0.5 };
  bad "fragment slower than interp"
    { Cost_model.default with Cost_model.fragment_cycles_per_instr = 99.0 }

(* ------------------------------------------------------------------ *)
(* Fragment cache                                                      *)
(* ------------------------------------------------------------------ *)

let mk_fragment ~path ~head ~blocks =
  {
    Fragment_cache.fr_path = path;
    fr_head = head;
    fr_blocks = blocks;
    fr_instrs = Array.length blocks;
  }

let test_cache_insert_find () =
  let c = Fragment_cache.create ~capacity:4 () in
  let f1 = mk_fragment ~path:1 ~head:10 ~blocks:[| 10; 11 |] in
  let f2 = mk_fragment ~path:2 ~head:10 ~blocks:[| 10; 12 |] in
  Alcotest.(check bool) "insert" true (Fragment_cache.insert c f1 = `Inserted);
  Alcotest.(check bool) "duplicate" true (Fragment_cache.insert c f1 = `Duplicate);
  Alcotest.(check bool) "second at same head" true
    (Fragment_cache.insert c f2 = `Inserted);
  Alcotest.(check int) "size" 2 (Fragment_cache.size c);
  Alcotest.(check bool) "find by path" true (Fragment_cache.find_path c 2 <> None);
  Alcotest.(check int) "both fragments at head" 2
    (List.length (Fragment_cache.find_head c 10));
  Alcotest.(check (list int)) "no fragment elsewhere" []
    (List.map (fun f -> f.Fragment_cache.fr_path) (Fragment_cache.find_head c 99))

let test_cache_capacity_and_flush () =
  let c = Fragment_cache.create ~capacity:2 () in
  ignore (Fragment_cache.insert c (mk_fragment ~path:1 ~head:1 ~blocks:[| 1 |]));
  ignore (Fragment_cache.insert c (mk_fragment ~path:2 ~head:2 ~blocks:[| 2 |]));
  Alcotest.(check bool) "full" true (Fragment_cache.is_full c);
  Alcotest.(check bool) "insert into full" true
    (Fragment_cache.insert c (mk_fragment ~path:3 ~head:3 ~blocks:[| 3 |]) = `Full);
  Fragment_cache.flush c;
  Alcotest.(check int) "flushed" 0 (Fragment_cache.size c);
  Alcotest.(check int) "flush count" 1 (Fragment_cache.flush_count c);
  Alcotest.(check int) "inserted total survives flush" 2
    (Fragment_cache.inserted_total c);
  Alcotest.(check bool) "reusable after flush" true
    (Fragment_cache.insert c (mk_fragment ~path:3 ~head:3 ~blocks:[| 3 |]) = `Inserted)

let test_cache_lru_eviction () =
  let c = Fragment_cache.create ~capacity:2 ~eviction:Fragment_cache.Evict_lru () in
  let f1 = mk_fragment ~path:1 ~head:1 ~blocks:[| 1 |] in
  let f2 = mk_fragment ~path:2 ~head:2 ~blocks:[| 2 |] in
  let f3 = mk_fragment ~path:3 ~head:3 ~blocks:[| 3 |] in
  ignore (Fragment_cache.insert c f1);
  ignore (Fragment_cache.insert c f2);
  (* Touch f1 so f2 is the LRU victim. *)
  ignore (Fragment_cache.find_path c 1);
  (match Fragment_cache.insert c f3 with
   | `Evicted victim ->
     Alcotest.(check int) "LRU victim is f2" 2 victim.Fragment_cache.fr_path
   | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check bool) "f1 still resident" true (Fragment_cache.find_path c 1 <> None);
  Alcotest.(check bool) "f2 gone" true (Fragment_cache.find_path c 2 = None);
  Alcotest.(check bool) "f3 resident" true (Fragment_cache.find_path c 3 <> None);
  Alcotest.(check int) "eviction counted" 1 (Fragment_cache.evicted_total c);
  Alcotest.(check (list int)) "head list updated" []
    (List.map (fun f -> f.Fragment_cache.fr_path) (Fragment_cache.find_head c 2))

let paths_at c head = List.map (fun f -> f.Fragment_cache.fr_path) (Fragment_cache.find_head c head)

let test_cache_evict_middle_of_chain () =
  (* Three fragments at head 5, newest first 3, 2, 1.  Touch 1 and 3, so
     the LRU victim is 2, in the middle of the chain. *)
  let c = Fragment_cache.create ~capacity:3 ~eviction:Fragment_cache.Evict_lru () in
  List.iter
    (fun (path, tail) ->
       ignore (Fragment_cache.insert c (mk_fragment ~path ~head:5 ~blocks:[| 5; tail |])))
    [ (1, 6); (2, 7); (3, 8) ];
  Fragment_cache.touch c 1;
  Fragment_cache.touch c 3;
  (match Fragment_cache.insert c (mk_fragment ~path:4 ~head:9 ~blocks:[| 9 |]) with
   | `Evicted victim -> Alcotest.(check int) "victim is the middle of the chain" 2
                          victim.Fragment_cache.fr_path
   | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check (list int)) "chain keeps its order around the hole" [ 3; 1 ]
    (paths_at c 5);
  Alcotest.(check bool) "2 gone" false (Fragment_cache.mem c 2);
  (* A new fragment at the head goes in front of the survivors. *)
  ignore (Fragment_cache.insert c (mk_fragment ~path:2 ~head:5 ~blocks:[| 5; 7 |]));
  Alcotest.(check (list int)) "reinserted newest first" [ 2; 3; 1 ] (paths_at c 5)

let test_cache_find_head_after_flush () =
  let c = Fragment_cache.create ~capacity:8 () in
  List.iter
    (fun path -> ignore (Fragment_cache.insert c (mk_fragment ~path ~head:1 ~blocks:[| 1; path |])))
    [ 10; 11; 12 ];
  Alcotest.(check (list int)) "newest first" [ 12; 11; 10 ] (paths_at c 1);
  Fragment_cache.flush c;
  Alcotest.(check (list int)) "empty after flush" [] (paths_at c 1);
  Alcotest.(check bool) "nothing resident" false
    (List.exists (Fragment_cache.mem c) [ 10; 11; 12 ]);
  Alcotest.(check int) "no prefix after flush" 0
    (Fragment_cache.longest_prefix c [| 1; 11 |]);
  List.iter
    (fun path -> ignore (Fragment_cache.insert c (mk_fragment ~path ~head:1 ~blocks:[| 1; path |])))
    [ 11; 10 ];
  Alcotest.(check (list int)) "rebuilt chain" [ 10; 11 ] (paths_at c 1)

let test_cache_large_ids () =
  (* Ids far past the initial tables, interleaved with small ones. *)
  let c = Fragment_cache.create ~capacity:4 ~eviction:Fragment_cache.Evict_lru () in
  let big = 100_000 and head = 70_000 in
  ignore (Fragment_cache.insert c (mk_fragment ~path:3 ~head ~blocks:[| head; 1 |]));
  ignore (Fragment_cache.insert c (mk_fragment ~path:big ~head ~blocks:[| head; 2; 3 |]));
  ignore (Fragment_cache.insert c (mk_fragment ~path:(big + 1) ~head:2 ~blocks:[| 2 |]));
  Alcotest.(check bool) "big id resident" true (Fragment_cache.mem c big);
  Alcotest.(check bool) "ids past the tables are absent" false
    (Fragment_cache.mem c (10 * big));
  Alcotest.(check (list int)) "big head chain" [ big; 3 ] (paths_at c head);
  Alcotest.(check (list int)) "head past the tables" [] (paths_at c (10 * head));
  Alcotest.(check int) "longest prefix at a big head" 3
    (Fragment_cache.longest_prefix c [| head; 2; 3; 4 |]);
  Alcotest.(check bool) "find_path" true
    (match Fragment_cache.find_path c (big + 1) with
     | Some f -> f.Fragment_cache.fr_head = 2
     | None -> false)

let test_cache_lru_after_prefix_probe () =
  (* Path 1 at head 1 is the oldest; a partial-hit probe at head 1 touches
     it, so the victim becomes 2 (head 2), not 1. *)
  let c = Fragment_cache.create ~capacity:3 ~eviction:Fragment_cache.Evict_lru () in
  ignore (Fragment_cache.insert c (mk_fragment ~path:1 ~head:1 ~blocks:[| 1; 2; 3 |]));
  ignore (Fragment_cache.insert c (mk_fragment ~path:2 ~head:2 ~blocks:[| 2 |]));
  ignore (Fragment_cache.insert c (mk_fragment ~path:3 ~head:1 ~blocks:[| 1; 4 |]));
  Alcotest.(check int) "shared prefix of two blocks" 2
    (Fragment_cache.longest_prefix c [| 1; 2; 5 |]);
  (match Fragment_cache.insert c (mk_fragment ~path:4 ~head:4 ~blocks:[| 4 |]) with
   | `Evicted victim ->
     Alcotest.(check int) "probe refreshed head 1's chain" 2 victim.Fragment_cache.fr_path
   | _ -> Alcotest.fail "expected eviction");
  (* The probe touched 3 then 1 (newest first), so 3 is now the oldest. *)
  (match Fragment_cache.insert c (mk_fragment ~path:5 ~head:5 ~blocks:[| 5 |]) with
   | `Evicted victim ->
     Alcotest.(check int) "newest-first touch order" 3 victim.Fragment_cache.fr_path
   | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check int) "no fragment at the head" 0
    (Fragment_cache.longest_prefix c [| 7; 1 |])

let test_cache_lru_under_engine () =
  (* Tight cache: LRU must not flush, and coverage must be at least the
     flush policy's. *)
  let b = Hotpath_workloads.Suite.find_exn "deltablue" in
  let r = Hotpath_workloads.Suite.record ~scale:0.3 b in
  let cost = Cost_model.default in
  let run eviction =
    Engine.run
      (Engine.config ~cost ~cache_capacity:48 ~cache_eviction:eviction
         ~scheme:(module Net : Scheme.S)
         ~scheme_costs:(Engine.net_costs cost) ~delay:50 ())
      r
  in
  let flushy = run Fragment_cache.Reject_when_full in
  let lru = run Fragment_cache.Evict_lru in
  Alcotest.(check int) "no flushes under LRU" 0 lru.Engine.r_flushes;
  Alcotest.(check bool) "flush policy flushes under pressure" true
    (flushy.Engine.r_flushes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "LRU coverage %.1f >= flush coverage %.1f"
       lru.Engine.r_cache_coverage_pct flushy.Engine.r_cache_coverage_pct)
    true
    (lru.Engine.r_cache_coverage_pct >= flushy.Engine.r_cache_coverage_pct -. 1.0)

let test_cache_policy_ablation_rows () =
  let rows =
    Hotpath_experiments.Ablations.cache_policies ~scale:0.3 ~bench:"deltablue"
      ~capacities:[ 32; 512 ] ()
  in
  Alcotest.(check int) "2 capacities x 2 policies" 4 (List.length rows)

let test_cache_invalid_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Fragment_cache.create: capacity must be >= 1") (fun () ->
      ignore (Fragment_cache.create ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let net_config ?cost ?flush_policy ?bail_policy ~delay () =
  let cost = Option.value ~default:Cost_model.default cost in
  Engine.config ~cost ?flush_policy ?bail_policy
    ~scheme:(module Net : Scheme.S)
    ~scheme_costs:(Engine.net_costs cost) ~delay ()

let pp_config ?cost ~delay () =
  let cost = Option.value ~default:Cost_model.default cost in
  Engine.config ~cost
    ~scheme:(module Path_profile : Scheme.S)
    ~scheme_costs:(Engine.path_profile_costs cost) ~delay ()

let record_loop ?(iterations = 2_000) () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations () in
  Recorder.record program behavior ~rng:(Prng.create ~seed:3)

let test_engine_native_cycles () =
  let r = record_loop ~iterations:100 () in
  let result = Engine.run (net_config ~delay:5 ()) r in
  (* Native cycles = total executed instructions (weights 2,3,5,1). *)
  let expected = float_of_int (2 + ((3 + 5) * 100) + 1) in
  Alcotest.(check (float 1e-6)) "native cycles" expected result.Engine.r_native_cycles

let test_engine_dominant_loop_speeds_up () =
  let r = record_loop ~iterations:5_000 () in
  let result = Engine.run (net_config ~delay:5 ()) r in
  Alcotest.(check bool)
    (Printf.sprintf "positive speedup (%.1f%%)" result.Engine.r_speedup_pct)
    true
    (result.Engine.r_speedup_pct > 10.0);
  Alcotest.(check bool) "high coverage" true (result.Engine.r_cache_coverage_pct > 95.0);
  Alcotest.(check bool) "no bail" true (not result.Engine.r_bailed);
  Alcotest.(check int) "no native tail" 0 result.Engine.r_native_tail

let test_engine_full_hits_dominate () =
  let r = record_loop ~iterations:5_000 () in
  let result = Engine.run (net_config ~delay:5 ()) r in
  Alcotest.(check bool) "full hits dominate" true
    (result.Engine.r_full_hits > 9 * result.Engine.r_misses)

let test_engine_cycle_breakdown_sums () =
  let r = record_loop ~iterations:500 () in
  let result = Engine.run (net_config ~delay:5 ()) r in
  let total =
    result.Engine.r_cycles_fragment +. result.Engine.r_cycles_interp
    +. result.Engine.r_cycles_profile +. result.Engine.r_cycles_overhead
    +. result.Engine.r_cycles_flush
  in
  Alcotest.(check (float 1e-6)) "breakdown sums to dynamo cycles" total
    result.Engine.r_dynamo_cycles

let test_engine_determinism () =
  let r = record_loop () in
  let r1 = Engine.run (net_config ~delay:10 ()) r in
  let r2 = Engine.run (net_config ~delay:10 ()) r in
  Alcotest.(check (float 1e-9)) "same cycles" r1.Engine.r_dynamo_cycles
    r2.Engine.r_dynamo_cycles

let test_engine_partial_hits () =
  (* Figure 1 flat: several paths share the head A; after the first
     prediction, divergent paths partially match its fragment. *)
  let program, behavior =
    Hotpath_workloads.Figure1.build ~config:Hotpath_workloads.Figure1.flat ()
  in
  let r =
    Recorder.record ~max_paths:5_000 ~max_steps:500_000 program behavior
      ~rng:(Prng.create ~seed:5)
  in
  let result = Engine.run (net_config ~delay:10 ()) r in
  Alcotest.(check bool) "partial hits occur" true (result.Engine.r_partial_hits > 0)

let test_engine_invalid_config () =
  Alcotest.check_raises "delay" (Invalid_argument "Engine.config: delay must be >= 1")
    (fun () -> ignore (net_config ~delay:0 ()));
  let bad_cost =
    { Cost_model.default with Cost_model.interp_cycles_per_instr = 0.1 }
  in
  (match net_config ~cost:bad_cost ~delay:5 () with
   | exception Invalid_argument _ -> ()
   | (_ : Engine.config) -> Alcotest.fail "expected invalid cost rejection")

(* A gcc-like workload: flat, wide, no dominant reuse — must bail out. *)
let test_engine_bails_on_flat_workload () =
  let spec =
    {
      Generator.g_name = "flatland";
      g_loops = [ (40, Generator.loop ~branches:10 ~bias:0.5 ~iterations:6 ()) ];
      g_procs = 4;
      g_phase_steps = None;
    }
  in
  let program, behavior = Generator.build spec ~seed:17 in
  let r =
    Recorder.record ~max_paths:120_000 ~max_steps:20_000_000 program behavior
      ~rng:(Prng.create ~seed:19)
  in
  let result = Engine.run (net_config ~delay:50 ()) r in
  Alcotest.(check bool) "bails out" true result.Engine.r_bailed;
  Alcotest.(check bool) "native tail follows" true (result.Engine.r_native_tail > 0)

(* A phased workload: the flush heuristic must fire at the phase change. *)
let phased_recording () =
  let spec =
    {
      Generator.g_name = "phased";
      g_loops =
        [ (6, Generator.loop ~branches:6 ~bias:0.97 ~iterations:200 ~phase_flip:true ()) ];
      g_procs = 1;
      g_phase_steps = Some 300_000;
    }
  in
  let program, behavior = Generator.build spec ~seed:23 in
  Recorder.record ~max_paths:120_000 ~max_steps:3_000_000 program behavior
    ~rng:(Prng.create ~seed:29)

let test_engine_flush_on_phase_change () =
  let r = phased_recording () in
  let with_flush =
    Engine.run
      (net_config
         ~flush_policy:(Some { Engine.fp_window = 2048; fp_factor = 2.0; fp_min = 8 })
         ~delay:20 ())
      r
  in
  Alcotest.(check bool)
    (Printf.sprintf "flushes at phase changes (%d)" with_flush.Engine.r_flushes)
    true
    (with_flush.Engine.r_flushes >= 1);
  let without =
    Engine.run (net_config ~flush_policy:None ~delay:20 ()) r
  in
  Alcotest.(check int) "no flushes without policy" 0 without.Engine.r_flushes

let test_engine_steady_workload_does_not_flush () =
  let r = record_loop ~iterations:5_000 () in
  let result = Engine.run (net_config ~delay:5 ()) r in
  Alcotest.(check int) "no flush on steady workload" 0 result.Engine.r_flushes

let test_engine_pp_vs_net_profiling_cost () =
  let r = record_loop ~iterations:2_000 () in
  let net = Engine.run (net_config ~delay:20 ()) r in
  let pp = Engine.run (pp_config ~delay:20 ()) r in
  Alcotest.(check bool) "path-profile pays more profiling cycles" true
    (pp.Engine.r_cycles_profile > net.Engine.r_cycles_profile)

(* ------------------------------------------------------------------ *)
(* Online driver                                                       *)
(* ------------------------------------------------------------------ *)

module Online = Hotpath_dynamo.Online

let test_online_equals_replay () =
  (* The strongest methodology check: feeding the VM's path stream through
     the stepper live produces exactly the same result as recording the
     trace and replaying it. *)
  let program, behavior, _ = Fixtures.indirect_loop ~exit_prob:0.002 () in
  let config = net_config ~delay:10 () in
  let online =
    Online.run ~max_steps:80_000 ~config program behavior
      ~rng:(Prng.create ~seed:41)
  in
  let recorded =
    Recorder.record ~max_steps:80_000 program behavior ~rng:(Prng.create ~seed:41)
  in
  let replayed = Engine.run config recorded in
  let o = online.Online.o_result in
  Alcotest.(check int) "same instances" (Recorder.num_instances recorded)
    online.Online.o_instances;
  Alcotest.(check int) "same paths" (Recorder.num_paths recorded)
    online.Online.o_paths;
  Alcotest.(check (float 1e-9)) "same native cycles" replayed.Engine.r_native_cycles
    o.Engine.r_native_cycles;
  Alcotest.(check (float 1e-9)) "same dynamo cycles" replayed.Engine.r_dynamo_cycles
    o.Engine.r_dynamo_cycles;
  Alcotest.(check int) "same full hits" replayed.Engine.r_full_hits o.Engine.r_full_hits;
  Alcotest.(check int) "same partials" replayed.Engine.r_partial_hits
    o.Engine.r_partial_hits;
  Alcotest.(check int) "same fragments" replayed.Engine.r_fragments o.Engine.r_fragments;
  Alcotest.(check int) "same flushes" replayed.Engine.r_flushes o.Engine.r_flushes

let test_online_equals_replay_on_benchmark () =
  let b = Hotpath_workloads.Suite.find_exn "deltablue" in
  let program, behavior =
    Generator.build b.Hotpath_workloads.Suite.b_spec
      ~seed:b.Hotpath_workloads.Suite.b_seed
  in
  let config = net_config ~delay:50 () in
  let seed = b.Hotpath_workloads.Suite.b_seed * 7919 in
  let online =
    Online.run ~max_paths:15_000 ~max_steps:3_000_000 ~config program behavior
      ~rng:(Prng.create ~seed)
  in
  let recorded =
    Recorder.record ~max_paths:15_000 ~max_steps:3_000_000 program behavior
      ~rng:(Prng.create ~seed)
  in
  let replayed = Engine.run config recorded in
  Alcotest.(check (float 1e-9)) "identical speedup"
    replayed.Engine.r_speedup_pct online.Online.o_result.Engine.r_speedup_pct

let test_online_respects_limits () =
  let program, behavior, _ = Fixtures.simple_loop ~iterations:1_000_000 () in
  let config = net_config ~delay:5 () in
  let o =
    Online.run ~max_paths:500 ~config program behavior ~rng:(Prng.create ~seed:1)
  in
  Alcotest.(check int) "stops at max paths" 500 o.Online.o_instances

let suites =
  [
    ( "dynamo.cost_model",
      [
        Alcotest.test_case "default valid" `Quick test_cost_model_default_valid;
        Alcotest.test_case "validation" `Quick test_cost_model_validation;
      ] );
    ( "dynamo.fragment_cache",
      [
        Alcotest.test_case "insert/find" `Quick test_cache_insert_find;
        Alcotest.test_case "capacity/flush" `Quick test_cache_capacity_and_flush;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "evict from the middle of a chain" `Quick
          test_cache_evict_middle_of_chain;
        Alcotest.test_case "find_head after a flush" `Quick test_cache_find_head_after_flush;
        Alcotest.test_case "ids past the initial tables" `Quick test_cache_large_ids;
        Alcotest.test_case "LRU victim after a prefix probe" `Quick
          test_cache_lru_after_prefix_probe;
        Alcotest.test_case "LRU under engine" `Quick test_cache_lru_under_engine;
        Alcotest.test_case "policy ablation rows" `Quick test_cache_policy_ablation_rows;
        Alcotest.test_case "invalid capacity" `Quick test_cache_invalid_capacity;
      ] );
    ( "dynamo.engine",
      [
        Alcotest.test_case "native cycles" `Quick test_engine_native_cycles;
        Alcotest.test_case "dominant loop speedup" `Quick
          test_engine_dominant_loop_speeds_up;
        Alcotest.test_case "full hits dominate" `Quick test_engine_full_hits_dominate;
        Alcotest.test_case "breakdown sums" `Quick test_engine_cycle_breakdown_sums;
        Alcotest.test_case "determinism" `Quick test_engine_determinism;
        Alcotest.test_case "partial hits" `Quick test_engine_partial_hits;
        Alcotest.test_case "invalid config" `Quick test_engine_invalid_config;
        Alcotest.test_case "bails on flat workload" `Slow
          test_engine_bails_on_flat_workload;
        Alcotest.test_case "flush on phase change" `Slow test_engine_flush_on_phase_change;
        Alcotest.test_case "steady workload: no flush" `Quick
          test_engine_steady_workload_does_not_flush;
        Alcotest.test_case "pp pays more profiling" `Quick
          test_engine_pp_vs_net_profiling_cost;
      ] );
    ( "dynamo.online",
      [
        Alcotest.test_case "online = record+replay" `Quick test_online_equals_replay;
        Alcotest.test_case "online = replay on benchmark" `Quick
          test_online_equals_replay_on_benchmark;
        Alcotest.test_case "respects limits" `Quick test_online_respects_limits;
      ] );
  ]
