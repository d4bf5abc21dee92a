(* Cross-layer property tests: random workload specs are generated with
   QCheck and every layer's invariants are checked on the resulting
   programs, recordings, replays, serializations, and Dynamo runs. *)

module Cfg = Hotpath_cfg.Cfg
module Behavior = Hotpath_vm.Behavior
module Recorder = Hotpath_trace.Recorder
module Serialize = Hotpath_trace.Serialize
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Generator = Hotpath_workloads.Generator
module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Branch_profile = Hotpath_prediction.Branch_profile
module Replay = Hotpath_prediction.Replay
module Hot_set = Hotpath_metrics.Hot_set
module Rates = Hotpath_metrics.Rates
module Ball_larus = Hotpath_profiling.Ball_larus
module Bounds = Hotpath_analysis.Bounds
module Cost_model = Hotpath_dynamo.Cost_model
module Engine = Hotpath_dynamo.Engine
module Prng = Hotpath_util.Prng

(* ------------------------------------------------------------------ *)
(* Random workload specs                                               *)
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
    let* micros = 0 -- 12 in
    let* procs = 1 -- 3 in
    let groups =
      if micros > 0 then (micros, Generator.micro_loop ~fire_period:6 ()) :: groups
      else groups
    in
    return { Generator.g_name = "prop"; g_loops = groups; g_procs = procs;
             g_phase_steps = None })

let print_spec spec =
  Printf.sprintf "{loops=%d procs=%d}" (Generator.total_loops spec)
    spec.Generator.g_procs

let arb_workload =
  QCheck.make ~print:(fun (spec, seed) -> print_spec spec ^ Printf.sprintf " seed=%d" seed)
    QCheck.Gen.(pair gen_spec (0 -- 1_000_000))

let record_spec (spec, seed) =
  let program, behavior = Generator.build spec ~seed in
  let recorded =
    Recorder.record ~max_steps:15_000 program behavior
      ~rng:(Prng.create ~seed:(seed + 1))
  in
  (program, recorded)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_generated_programs_valid =
  QCheck.Test.make ~name:"generated programs and behaviours validate" ~count:60
    arb_workload
    (fun (spec, seed) ->
       let program, behavior = Generator.build spec ~seed in
       Cfg.validate program = Ok () && Behavior.validate behavior = Ok ())

let prop_recording_partitions_blocks =
  QCheck.Test.make ~name:"recorded paths partition the executed blocks" ~count:40
    arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       let recorded_blocks =
         Array.fold_left
           (fun acc pid ->
              acc
              + Array.length
                  (Path_table.path recorded.Recorder.table pid).Path.blocks)
           0 recorded.Recorder.instances
       in
       (* Fuel stops drop the in-flight unexecuted block, so recorded blocks
          can undershoot by at most one partial path (bounded by the cap's
          block count); they can never overshoot. *)
       recorded_blocks <= recorded.Recorder.vm_stats.Hotpath_vm.Vm.blocks
       && recorded.Recorder.vm_stats.Hotpath_vm.Vm.blocks - recorded_blocks < 1_000)

let prop_counter_space_ordering =
  QCheck.Test.make ~name:"NET counter space <= path-profile counter space"
    ~count:40 arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       Recorder.num_instances recorded = 0
       ||
       let net = Replay.run (module Net) ~delay:10 recorded in
       let pp = Replay.run (module Path_profile) ~delay:10 recorded in
       net.Replay.counter_space <= pp.Replay.counter_space)

let prop_hits_bounded_by_hot_flow =
  QCheck.Test.make ~name:"hits + MOC never exceed hot flow (all schemes)" ~count:30
    arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       Recorder.num_instances recorded < 100
       ||
       let hot =
         Hot_set.compute
           ~freq:(Recorder.frequencies recorded)
           ~total_flow:(Recorder.num_instances recorded)
           ~threshold:0.01
       in
       let check outcome =
         let r = Rates.operational outcome hot in
         r.Rates.hits + r.Rates.moc <= hot.Hot_set.hot_flow
         && r.Rates.hit_rate >= 0.0
         && r.Rates.hit_rate <= 100.0
       in
       check (Replay.run (module Net) ~delay:7 recorded)
       && check (Replay.run (module Path_profile) ~delay:7 recorded)
       && check (Branch_profile.run ~delay:7 recorded).Branch_profile.base)

let prop_engine_invariants =
  QCheck.Test.make ~name:"Dynamo engine accounting invariants" ~count:30 arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       Recorder.num_instances recorded = 0
       ||
       let cost = Cost_model.default in
       let result =
         Engine.run
           (Engine.config ~cost
              ~scheme:(module Net : Scheme.S)
              ~scheme_costs:(Engine.net_costs cost) ~delay:10 ())
           recorded
       in
       let breakdown =
         result.Engine.r_cycles_fragment +. result.Engine.r_cycles_interp
         +. result.Engine.r_cycles_profile +. result.Engine.r_cycles_overhead
         +. result.Engine.r_cycles_flush
       in
       let native_tail_cycles =
         result.Engine.r_dynamo_cycles -. breakdown
       in
       Float.abs
         (result.Engine.r_full_hits + result.Engine.r_partial_hits
          + result.Engine.r_misses + result.Engine.r_native_tail
          - Recorder.num_instances recorded
          |> float_of_int)
       < 0.5
       && native_tail_cycles >= -1e-6
       && result.Engine.r_cache_coverage_pct >= 0.0
       && result.Engine.r_cache_coverage_pct <= 100.0
       && result.Engine.r_native_cycles > 0.0)

let prop_engine_native_cycles_exact =
  QCheck.Test.make ~name:"engine native cycles equal executed instructions"
    ~count:30 arb_workload
    (fun w ->
       let program, recorded = record_spec w in
       Recorder.num_instances recorded = 0
       ||
       let cost = Cost_model.default in
       let result =
         Engine.run
           (Engine.config ~cost
              ~scheme:(module Net : Scheme.S)
              ~scheme_costs:(Engine.net_costs cost) ~delay:10 ())
           recorded
       in
       let expected =
         Array.fold_left
           (fun acc pid ->
              acc
              + Array.fold_left
                  (fun a b -> a + (Cfg.block program b).Cfg.weight)
                  0
                  (Path_table.path recorded.Recorder.table pid).Path.blocks)
           0 recorded.Recorder.instances
       in
       Float.abs (result.Engine.r_native_cycles -. float_of_int expected) < 0.5)

let prop_ball_larus_on_generated_procs =
  QCheck.Test.make ~name:"Ball-Larus numbering on generated procedures" ~count:30
    arb_workload
    (fun (spec, seed) ->
       let program, _ = Generator.build spec ~seed in
       Array.for_all
         (fun (procedure : Cfg.proc) ->
            let pid = procedure.Cfg.pid in
            match Bounds.bl_paths program ~proc:pid with
            | Bounds.Overflow -> (
                (* Past the cap the instrumentation must refuse the
                   procedure, as its interface documents. *)
                match Ball_larus.analyze program ~proc:pid with
                | _ -> false
                | exception Invalid_argument _ -> true)
            | Bounds.Exact _ ->
              let t = Ball_larus.analyze program ~proc:pid in
              let n = Ball_larus.num_paths t in
              n >= 1
              &&
              if n <= 512 then
                Array.for_all
                  (fun blocks -> Ball_larus.path_number t blocks >= 0)
                  (Ball_larus.enumerate t)
              else true)
         program.Cfg.procs)

let prop_boa_phantoms_never_in_table =
  QCheck.Test.make ~name:"Boa phantoms are genuinely absent from the trace"
    ~count:30 arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       let o = Branch_profile.run ~delay:5 recorded in
       List.for_all
         (fun s -> Path_table.find recorded.Recorder.table s = None)
         o.Branch_profile.phantoms)

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

let prop_run_many_equals_per_delay_runs =
  QCheck.Test.make
    ~name:"run_many is bit-identical to per-delay runs (all schemes)" ~count:30
    arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
       List.for_all
         (fun scheme ->
            let multiplexed = Replay.run_many scheme ~delays recorded in
            List.length multiplexed = List.length delays
            && List.for_all2
                 (fun delay o -> outcome_equal (Replay.run scheme ~delay recorded) o)
                 delays multiplexed)
         [
           (module Net : Scheme.S);
           (module Net.Net_once);
           (module Net.Last_executed_tail);
           (module Path_profile);
         ])

(* Streamed replay is a pull-fed HOTPATH3 reader through
   [Replay.run_mapped]; the frame size is drawn from the workload seed so
   the split points vary. *)
let stream_reader ~seed recorded =
  Serialize.Stream.of_recorder ~chunk_instances:(1 + (seed mod 97)) recorded

let prop_stream_roundtrip =
  QCheck.Test.make
    ~name:"HOTPATH3 streams round-trip generated recordings" ~count:30
    arb_workload
    (fun ((_, seed) as w) ->
       let _, recorded = record_spec w in
       match
         Serialize.of_string
           (Serialize.Stream.to_string ~chunk_instances:(1 + (seed mod 97))
              recorded)
       with
       | Error _ -> false
       | Ok r ->
         r.Recorder.instances = recorded.Recorder.instances
         && r.Recorder.arrivals = recorded.Recorder.arrivals
         && Recorder.num_paths r = Recorder.num_paths recorded
         && r.Recorder.vm_stats = recorded.Recorder.vm_stats)

let prop_run_stream_equals_run =
  QCheck.Test.make
    ~name:"run_stream is bit-identical to run (all schemes)" ~count:25
    arb_workload
    (fun ((_, seed) as w) ->
       let _, recorded = record_spec w in
       List.for_all
         (fun scheme ->
            List.for_all
              (fun delay ->
                 match
                   Replay.run_mapped scheme ~delay (stream_reader ~seed recorded)
                 with
                 | Error _ -> false
                 | Ok streamed ->
                   outcome_equal (Replay.run scheme ~delay recorded) streamed)
              [ 2; 11; 400 ])
         [
           (module Net : Scheme.S);
           (module Net.Net_once);
           (module Net.Last_executed_tail);
           (module Path_profile);
         ])

let prop_run_many_stream_equals_run_many =
  QCheck.Test.make
    ~name:"run_many_stream is bit-identical to run_many (all schemes)"
    ~count:25 arb_workload
    (fun ((_, seed) as w) ->
       let _, recorded = record_spec w in
       let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
       List.for_all
         (fun scheme ->
            match
              Replay.run_many_mapped scheme ~delays
                (stream_reader ~seed recorded)
            with
            | Error _ -> false
            | Ok streamed ->
              List.length streamed = List.length delays
              && List.for_all2 outcome_equal
                   (Replay.run_many scheme ~delays recorded)
                   streamed)
         [
           (module Net : Scheme.S);
           (module Net.Net_once);
           (module Net.Last_executed_tail);
           (module Path_profile);
         ])

let prop_run_many_single_pass =
  QCheck.Test.make ~name:"run_many reads the trace exactly once" ~count:20
    arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       let before = Replay.instance_reads () in
       ignore
         (Replay.run_many (module Net) ~delays:[ 1; 5; 25; 125; 625 ] recorded);
       Replay.instance_reads () - before = Recorder.num_instances recorded)

(* ------------------------------------------------------------------ *)
(* Monomorphized kernels                                               *)
(* ------------------------------------------------------------------ *)

(* The packed entry points dispatch the built-in schemes to specialized
   kernels; Make(S) always compiles the generic loop.  Comparing the two
   on the same scheme is therefore the kernel-vs-reference differential. *)
module Make_net = Replay.Make (Net)
module Make_net_once = Replay.Make (Net.Net_once)
module Make_let = Replay.Make (Net.Last_executed_tail)
module Make_pp = Replay.Make (Path_profile)

let prop_functor_equals_packed =
  QCheck.Test.make
    ~name:"Make(S) generic loop is bit-identical to packed kernels" ~count:25
    arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
       List.for_all
         (fun (packed, via_functor, via_functor_one) ->
            List.for_all2 outcome_equal
              (Replay.run_many packed ~delays recorded)
              (via_functor ~delays recorded)
            && outcome_equal
                 (Replay.run packed ~delay:7 recorded)
                 (via_functor_one ~delay:7 recorded))
         [
           ( (module Net : Scheme.S),
             (fun ~delays r -> Make_net.run_many ~delays r),
             fun ~delay r -> Make_net.run ~delay r );
           ( (module Net.Net_once),
             (fun ~delays r -> Make_net_once.run_many ~delays r),
             fun ~delay r -> Make_net_once.run ~delay r );
           ( (module Net.Last_executed_tail),
             (fun ~delays r -> Make_let.run_many ~delays r),
             fun ~delay r -> Make_let.run ~delay r );
           ( (module Path_profile),
             (fun ~delays r -> Make_pp.run_many ~delays r),
             fun ~delay r -> Make_pp.run ~delay r );
         ])

let prop_replay_capture_monotone_in_delay =
  QCheck.Test.make ~name:"captured flow shrinks as delay grows" ~count:30
    arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       let captured delay =
         (Replay.run (module Path_profile) ~delay recorded).Replay.captured_instances
       in
       captured 2 >= captured 8 && captured 8 >= captured 64)

(* ------------------------------------------------------------------ *)
(* Batch seams: push granularity and mapped sources                    *)
(* ------------------------------------------------------------------ *)

module Batch = Hotpath_trace.Batch
module Session = Hotpath_prediction.Session
module Net_k2 = Generic_twins.Net_k2
module Pp_k2 = Generic_twins.Pp_k2

(* The paper's schemes: every NET variant and path-profile. *)
let paper_schemes =
  [
    (module Net : Scheme.S);
    (module Net.Net_once);
    (module Net.Last_executed_tail);
    (module Path_profile);
  ]

(* Push [r] into a fresh session in slices of [g] instances, every slice
   refilling one batch (the readers' shape); [None] on any error. *)
let push_in_slices scheme ~delays (r : Recorder.t) g =
  match
    Session.create scheme ~delays ~program:r.Recorder.program
      ~table:r.Recorder.table
  with
  | Error _ -> None
  | Ok sess ->
    let n = Recorder.num_instances r and b = Batch.create ~capacity:1 () in
    let rec push off =
      if off >= n then Some (Session.finish sess)
      else begin
        let m = min g (n - off) in
        Batch.ensure b m;
        for j = 0 to m - 1 do
          b.Batch.ids.(j) <- r.Recorder.instances.(off + j);
          b.Batch.arrs.(j) <- Char.code (Bytes.get r.Recorder.arrivals (off + j))
        done;
        Batch.set_length b m;
        match Session.push_batch sess b with
        | Error _ -> None
        | Ok () -> push (off + m)
      end
    in
    push 0

let prop_push_granularity_equals_run_many =
  (* Lane state carries across every batch seam inside a session, so
     pushing a recording at any granularity replays to the same bits as
     [run_many], which copies it in fixed slices.  Adversarial
     granularities: every instance a seam, primes that never align with
     the replay's slice, one batch spanning past the end.  Every kernel
     and the generic loop. *)
  QCheck.Test.make
    ~name:"push_batch at any granularity == run_many (kernels + generic)"
    ~count:8 arb_workload
    (fun w ->
       let _, recorded = record_spec w in
       let n = Recorder.num_instances recorded in
       let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
       List.for_all
         (fun scheme ->
            let reference = Replay.run_many scheme ~delays recorded in
            List.for_all
              (fun g ->
                 match push_in_slices scheme ~delays recorded g with
                 | None -> false
                 | Some pushed -> List.for_all2 outcome_equal reference pushed)
              [ 1; 13; 37; n + 1 ])
         (paper_schemes
          @ [
            (module Net_k2 : Scheme.S);
            (module Pp_k2);
            (module Generic_twins.Net_generic);
            (module Generic_twins.Pp_generic);
            (module Generic_twins.Net_k2_generic);
            (module Generic_twins.Pp_k2_generic);
          ]))

let prop_run_many_mapped_equals_serial =
  (* The zero-copy mapped driver against the materialized reference:
     same outcomes and byte-identical event streams for every scheme.
     Both sides run the same kernel, so each kernel's mapped replay is
     also held to its generic twin's.  Frames of a few dozen instances
     declare paths across many frames, so the sessions' per-path arrays
     grow mid-stream. *)
  QCheck.Test.make ~name:"run_many_mapped == run_many (+ events)" ~count:10
    arb_workload
    (fun ((_, seed) as w) ->
       let _, recorded = record_spec w in
       let blob =
         Serialize.Stream.to_string ~chunk_instances:(8 + (seed mod 41))
           recorded
       in
       let mapped () =
         match Serialize.Stream.Mapped.of_string blob with
         | Ok m -> m
         | Error _ -> QCheck.assume_fail ()
       in
       let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
       let mapped_equals materialized scheme =
         match Replay.run_many_mapped scheme ~delays (mapped ()) with
         | Error _ -> false
         | Ok ms ->
           List.length ms = List.length delays
           && List.for_all2 outcome_equal materialized ms
       in
       List.for_all
         (fun scheme ->
            mapped_equals (Replay.run_many scheme ~delays recorded) scheme)
         paper_schemes
       && List.for_all
         (fun (_, kernel, twin) ->
            let materialized = Replay.run_many kernel ~delays recorded in
            mapped_equals materialized kernel && mapped_equals materialized twin)
         Generic_twins.pairs
       &&
       let mapped_bytes =
         let buf = Buffer.create 4_096 in
         let ev = Replay.events ~window:97 (Hotpath_util.Events.of_buffer buf) in
         match
           Replay.run_many_mapped ~events:ev (module Net) ~delays (mapped ())
         with
         | Error _ -> None
         | Ok _ -> Some (Buffer.contents buf)
       in
       let reference =
         let buf = Buffer.create 4_096 in
         let ev = Replay.events ~window:97 (Hotpath_util.Events.of_buffer buf) in
         ignore (Replay.run_many ~events:ev (module Net) ~delays recorded);
         Buffer.contents buf
       in
       Recorder.num_instances recorded = 0
       || String.length reference > 0 && mapped_bytes = Some reference)

(* ------------------------------------------------------------------ *)
(* Closed-form vs operational rates (Section 3)                        *)
(* ------------------------------------------------------------------ *)

let rates_pair scheme ~delay recorded =
  let o = Replay.run scheme ~delay recorded in
  let hot = Hot_set.of_outcome o ~threshold:0.01 in
  (Rates.operational o hot, Rates.closed_form o hot)

let prop_rates_closed_form_exact_for_path_profile =
  (* A path predicted by path-profile counting has executed exactly τ
     times at prediction, so the paper's aggregate formulas
     (Hits = freq(P∩Hot) − |P∩Hot|·τ, MOC = |P∩Hot|·τ) are not an
     approximation: every field agrees with the measured replay. *)
  QCheck.Test.make
    ~name:"closed form = operational on generated workloads (path-profile)"
    ~count:30
    QCheck.(pair arb_workload (int_range 1 40))
    (fun (w, delay) ->
       let _, recorded = record_spec w in
       Recorder.num_instances recorded < 50
       ||
       let op, cf = rates_pair (module Path_profile) ~delay recorded in
       op.Rates.hits = cf.Rates.hits
       && op.Rates.noise = cf.Rates.noise
       && op.Rates.moc = cf.Rates.moc
       && op.Rates.predicted_hot = cf.Rates.predicted_hot
       && op.Rates.predicted_cold = cf.Rates.predicted_cold
       && Float.equal op.Rates.hit_rate cf.Rates.hit_rate
       && Float.equal op.Rates.noise_rate cf.Rates.noise_rate
       && Float.equal op.Rates.profiled_flow_pct cf.Rates.profiled_flow_pct)

let prop_rates_closed_form_undershoots_for_net_once =
  (* A non-re-arming head fires exactly once, at its τ-th observed
     arrival, so the predicted tail has executed at most τ times — the
     closed form's per-path subtraction of a full τ can only undershoot:
     hits and noise come back low, MOC comes back high, never the other
     way.  (Re-arming NET does not obey this: a tail can sit out several
     firings and exceed τ pre-prediction executions, see
     [prop_rates_closed_form_conserves_for_net].)  The sum hits + MOC is
     the predicted hot flow under both accountings and must agree
     exactly. *)
  QCheck.Test.make
    ~name:"closed form undershoots operational for net-once, conserving hot flow"
    ~count:30
    QCheck.(pair arb_workload (int_range 1 40))
    (fun (w, delay) ->
       let _, recorded = record_spec w in
       Recorder.num_instances recorded < 50
       ||
       let op, cf = rates_pair (module Net.Net_once) ~delay recorded in
       cf.Rates.hits <= op.Rates.hits
       && cf.Rates.noise <= op.Rates.noise
       && cf.Rates.moc >= op.Rates.moc
       && cf.Rates.hits + cf.Rates.moc = op.Rates.hits + op.Rates.moc
       && op.Rates.predicted_hot = cf.Rates.predicted_hot
       && op.Rates.predicted_cold = cf.Rates.predicted_cold)

let prop_rates_closed_form_conserves_for_net =
  (* Re-arming NET loses the per-path τ bound, so the closed form can
     land on either side of the measured hits/noise; what survives is
     the accounting structure: both views agree on the predicted sets,
     MOC is exactly |P∩Hot|·τ by definition, and hits + MOC equals the
     predicted hot flow under both. *)
  QCheck.Test.make
    ~name:"closed form conserves predicted flow for re-arming NET" ~count:30
    QCheck.(pair arb_workload (int_range 1 40))
    (fun (w, delay) ->
       let _, recorded = record_spec w in
       Recorder.num_instances recorded < 50
       ||
       let op, cf = rates_pair (module Net) ~delay recorded in
       cf.Rates.hits + cf.Rates.moc = op.Rates.hits + op.Rates.moc
       && cf.Rates.moc = cf.Rates.predicted_hot * delay
       && op.Rates.predicted_hot = cf.Rates.predicted_hot
       && op.Rates.predicted_cold = cf.Rates.predicted_cold)

let suites =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest prop_generated_programs_valid;
        QCheck_alcotest.to_alcotest prop_recording_partitions_blocks;
        QCheck_alcotest.to_alcotest prop_counter_space_ordering;
        QCheck_alcotest.to_alcotest prop_hits_bounded_by_hot_flow;
        QCheck_alcotest.to_alcotest prop_engine_invariants;
        QCheck_alcotest.to_alcotest prop_engine_native_cycles_exact;
        QCheck_alcotest.to_alcotest prop_ball_larus_on_generated_procs;
        QCheck_alcotest.to_alcotest prop_boa_phantoms_never_in_table;
        QCheck_alcotest.to_alcotest prop_replay_capture_monotone_in_delay;
        QCheck_alcotest.to_alcotest prop_run_many_equals_per_delay_runs;
        QCheck_alcotest.to_alcotest prop_functor_equals_packed;
        QCheck_alcotest.to_alcotest prop_run_many_single_pass;
        QCheck_alcotest.to_alcotest prop_stream_roundtrip;
        QCheck_alcotest.to_alcotest prop_run_stream_equals_run;
        QCheck_alcotest.to_alcotest prop_run_many_stream_equals_run_many;
        QCheck_alcotest.to_alcotest prop_push_granularity_equals_run_many;
        QCheck_alcotest.to_alcotest prop_run_many_mapped_equals_serial;
        QCheck_alcotest.to_alcotest prop_rates_closed_form_exact_for_path_profile;
        QCheck_alcotest.to_alcotest prop_rates_closed_form_undershoots_for_net_once;
        QCheck_alcotest.to_alcotest prop_rates_closed_form_conserves_for_net;
      ] );
  ]
