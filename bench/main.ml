(* Benchmark harness: regenerates every table and figure of the paper and
   times the computational kernel behind each with Bechamel.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- quick     # microbenchmarks only
     dune exec bench/main.exe -- tables    # reproductions only
     dune exec bench/main.exe -- events    # event-stream overhead proof
     dune exec bench/main.exe -- record [--smoke]  # recording rate and words/instance
     dune exec bench/main.exe -- dynamo [--smoke]  # Dynamo engine rate and words/instance

   Reproduction output mirrors `hotpath table1|table2|fig2|fig3|fig4|fig5`
   and is recorded in EXPERIMENTS.md. *)

open Hotpath

let heading title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one per table/figure kernel, plus the      *)
(* profiling primitives whose costs the paper's argument rests on.      *)
(* ------------------------------------------------------------------ *)

let ops_tests () =
  (* Profiling primitives, measured per operation. *)
  let sig_builder = Signature.Builder.create ~head:0 in
  let flip = ref false in
  let shift =
    Bechamel.Test.make ~name:"op/bit-trace-shift"
      (Bechamel.Staged.stage (fun () ->
           if Signature.Builder.branch_count sig_builder >= Signature.max_branches
           then Signature.Builder.reset sig_builder ~head:0;
           flip := not !flip;
           Signature.Builder.add_branch sig_builder ~taken:!flip))
  in
  let program =
    let b = Cfg.Builder.create ~name:"bench" in
    let p = Cfg.Builder.add_proc b ~name:"main" in
    let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
    Cfg.Builder.set_term b b0 Cfg.Exit;
    Cfg.Builder.finish b
  in
  let net_state = Net.create ~delay:1_000_000_000 ~program in
  let counter = ref 0 in
  let net_observe =
    Bechamel.Test.make ~name:"op/net-head-counter"
      (Bechamel.Staged.stage (fun () ->
           incr counter;
           ignore
             (Net.observe net_state ~head:(!counter land 255) ~arrival:Path.Loop_head
                ~path_id:!counter ~n_branches:8 ~n_blocks:10)))
  in
  let pp_state = Path_profile_scheme.create ~delay:1_000_000_000 ~program in
  let pp_observe =
    Bechamel.Test.make ~name:"op/path-profile-update"
      (Bechamel.Staged.stage (fun () ->
           incr counter;
           ignore
             (Path_profile_scheme.observe pp_state ~head:0 ~arrival:Path.Loop_head
                ~path_id:(!counter land 4095) ~n_branches:8 ~n_blocks:10)))
  in
  [ shift; net_observe; pp_observe ]

let experiment_tests () =
  (* One kernel per table/figure, at reduced scale so each iteration is
     milliseconds. *)
  let bench = Suite.find_exn "deltablue" in
  let recorded = Suite.record ~scale:0.05 bench in
  let hot =
    Hot_set.compute
      ~freq:(Recorder.frequencies recorded)
      ~total_flow:(Recorder.num_instances recorded)
      ~threshold:Suite.hot_threshold
  in
  let table1 =
    Bechamel.Test.make ~name:"table1/record+hot-set"
      (Bechamel.Staged.stage (fun () ->
           let r = Suite.record ~scale:0.02 bench in
           ignore
             (Hot_set.compute ~freq:(Recorder.frequencies r)
                ~total_flow:(Recorder.num_instances r) ~threshold:Suite.hot_threshold)))
  in
  let table2 =
    Bechamel.Test.make ~name:"table2/unique-heads"
      (Bechamel.Staged.stage (fun () ->
           ignore (Path_table.unique_heads recorded.Recorder.table);
           ignore (Recorder.unique_loop_heads recorded)))
  in
  let fig2 =
    Bechamel.Test.make ~name:"fig2/net-replay-sweep"
      (Bechamel.Staged.stage (fun () ->
           ignore (Sweep.run (module Net) recorded ~hot ~delays:[ 5; 50; 500 ])))
  in
  let fig3 =
    Bechamel.Test.make ~name:"fig3/path-profile-replay-sweep"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Sweep.run
                (module Path_profile_scheme)
                recorded ~hot ~delays:[ 5; 50; 500 ])))
  in
  let fig4 =
    Bechamel.Test.make ~name:"fig4/counter-space-replay"
      (Bechamel.Staged.stage (fun () ->
           let net = Replay.run (module Net) ~delay:50 recorded in
           let pp = Replay.run (module Path_profile_scheme) ~delay:50 recorded in
           ignore (net.Replay.counter_space, pp.Replay.counter_space)))
  in
  let cost = Cost_model.default in
  let fig5 =
    Bechamel.Test.make ~name:"fig5/dynamo-engine"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Engine.run
                (Engine.config ~cost
                   ~scheme:(module Net : Scheme.S)
                   ~scheme_costs:(Engine.net_costs cost) ~delay:50 ())
                recorded)))
  in
  (* The multiplexing payoff: a full default-delay sweep as one pass vs
     one Replay.run per delay. *)
  let sweep_delays = Sweep.default_delays in
  let sweep_naive =
    Bechamel.Test.make ~name:"sweep/naive-pass-per-delay"
      (Bechamel.Staged.stage (fun () ->
           List.iter
             (fun delay -> ignore (Replay.run (module Net) ~delay recorded))
             sweep_delays))
  in
  let sweep_multiplexed =
    Bechamel.Test.make ~name:"sweep/multiplexed-single-pass"
      (Bechamel.Staged.stage (fun () ->
           ignore (Replay.run_many (module Net) ~delays:sweep_delays recorded)))
  in
  (* Streamed vs materialized replay over the same trace: the HOTPATH3
     stream is framed and CRC-checked, so this prices the decode overhead
     the constant-memory path pays. *)
  let blob = Serialize.Stream.to_string recorded in
  let replay_materialized =
    Bechamel.Test.make ~name:"stream/replay-materialized"
      (Bechamel.Staged.stage (fun () ->
           ignore (Replay.run (module Net) ~delay:50 recorded)))
  in
  let replay_streamed =
    Bechamel.Test.make ~name:"stream/replay-streamed"
      (Bechamel.Staged.stage (fun () ->
           match Serialize.Stream.Mapped.of_string blob with
           | Error e -> failwith e
           | Ok rd ->
             (match Replay.run_mapped (module Net) ~delay:50 rd with
              | Error e -> failwith e
              | Ok o -> ignore o)))
  in
  (* The monomorphization payoff: the same multiplexed replay through the
     generic packed loop vs the specialized kernel (see `kernel` mode for
     the full-trace measurement). *)
  let kernel_delays = [ 5; 50; 500 ] in
  let replay_packed =
    Bechamel.Test.make ~name:"replay/packed-generic-loop"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Replay.run_many
                (Scheme.generic (module Net))
                ~delays:kernel_delays recorded)))
  in
  let replay_kernel =
    Bechamel.Test.make ~name:"replay/monomorphized-kernel"
      (Bechamel.Staged.stage (fun () ->
           ignore (Replay.run_many (module Net) ~delays:kernel_delays recorded)))
  in
  [ table1; table2; fig2; fig3; fig4; fig5; sweep_naive; sweep_multiplexed;
    replay_materialized; replay_streamed; replay_packed; replay_kernel ]

let run_bechamel tests =
  let ols =
    Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Bechamel.Measure.run |]
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000
      ~quota:(Bechamel.Time.second 0.5)
      ~kde:(Some 1000) ()
  in
  let raw =
    Bechamel.Benchmark.all cfg instances
      (Bechamel.Test.make_grouped ~name:"hotpath" tests)
  in
  let results =
    List.map (fun instance -> Bechamel.Analyze.all ols instance raw) instances
  in
  let results = Bechamel.Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _metric by_test ->
       let rows =
         Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) by_test []
         |> List.sort compare
       in
       List.iter
         (fun (name, ols_result) ->
            match Bechamel.Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Format.printf "  %-40s %12.1f ns/run@." name est
            | Some _ | None -> Format.printf "  %-40s (no estimate)@." name)
         rows)
    results

(* ------------------------------------------------------------------ *)
(* Streaming demonstration: constant-memory record + replay            *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM, kB) from /proc/self/status; -1 where the
   proc filesystem is unavailable.  The watermark is monotonic for the
   life of the process, so the streamed phase must run first — whatever
   the materialized phase adds on top is attributable to holding the
   whole trace. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> -1
      | line ->
        (try Scanf.sscanf line "VmHWM: %d kB" (fun v -> v)
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

let pp_hwm label =
  match vm_hwm_kb () with
  | -1 -> Format.printf "  peak RSS %s: unavailable@." label
  | kb -> Format.printf "  peak RSS %s: %.1f MB@." label (float_of_int kb /. 1024.0)

let bench_ingest_file = "BENCH_ingest.json"

(* Same flat JSON-lines shape as BENCH_replay.json: one line per ingest
   variant, parseable by Events.parse_line. *)
let bench_ingest_line ~variant ~scale ~instances ~wall_s ~peak_rss_kb =
  let buf = Buffer.create 256 in
  Events.emit (Events.of_buffer buf) ~kind:"bench_ingest"
    [
      ("variant", Events.Str variant);
      ("scale", Events.Float scale);
      ("instances", Events.Int instances);
      ("wall_s", Events.Float wall_s);
      ("instances_per_s", Events.Float (float_of_int instances /. wall_s));
      ("peak_rss_kb", Events.Int peak_rss_kb);
    ];
  Buffer.contents buf

(* Words allocated by [f ()], its result included. *)
let allocated_words f =
  let s0 = Gc.quick_stat () in
  ignore (Sys.opaque_identity (f ()));
  let s1 = Gc.quick_stat () in
  s1.Gc.minor_words -. s0.Gc.minor_words
  +. (s1.Gc.major_words -. s0.Gc.major_words)
  -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)

(* [allocated_words] with the heap settled at both ends.  On OCaml 5,
   [Gc.quick_stat]'s minor count moves only at minor collections and its
   major count only at major slices, so an unsettled delta can be off by
   up to a minor heap (256k words by default): too coarse for a drain
   that allocates a few hundred thousand words in all. *)
let settled_words f =
  Gc.full_major ();
  allocated_words (fun () ->
      let r = f () in
      Gc.full_major ();
      r)

(* Allocation ceiling for the streaming smoke gate, in heap words per
   instance of draining the trace into one reused batch on each feed
   (pull, mapped, push).  Counted by [settled_words], opening the
   reader included, so it is exact: a pure function of the code and the
   seed.  At smoke scale nearly all of it is fixed: the path table
   (2,162 paths) and the batch grown to a 65,536-instance frame; the
   pull feed adds its 64 KiB staging buffer.  A decoder that allocated
   per instance, or a batch that stored arrivals as ints, would cross
   it. *)
let decode_words_ceiling = 0.55

(* Drain a HOTPATH3 file on each feed into one reused batch, returning
   (feed, instances, words).  The push feed gets the bytes in 64 KiB
   pieces, as a serve client sends them; reading the file for it happens
   outside the counted region. *)
let decode_allocation ~path =
  let module Stream = Serialize.Stream in
  let module Decoder = Stream.Decoder in
  let drain next rd =
    let b = Batch.create () in
    let rec go n =
      match next rd b with
      | Ok true -> go (n + Batch.length b)
      | Ok false -> n
      | Error e -> failwith e
    in
    go 0
  in
  let pull () =
    match Stream.open_file ~path with
    | Error e -> failwith e
    | Ok rd ->
      let n = drain Stream.next_batch rd in
      Stream.close rd;
      n
  in
  let mapped () =
    match Stream.Mapped.map_file ~path with
    | Error e -> failwith e
    | Ok m -> drain Stream.Mapped.next_batch m
  in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let push () =
    let d = Decoder.create () and b = Batch.create () and n = ref 0 in
    let rec pump () =
      match Decoder.next_batch d b with
      | Ok Decoder.B_batch ->
        n := !n + Batch.length b;
        pump ()
      | Ok (Decoder.B_program _) -> pump ()
      | Ok Decoder.B_need_more | Ok (Decoder.B_end _) -> ()
      | Error e -> failwith e
    in
    let total = String.length bytes in
    let rec feed pos =
      if pos < total then begin
        let len = min 65_536 (total - pos) in
        Decoder.feed d bytes ~pos ~len;
        pump ();
        feed (pos + len)
      end
    in
    feed 0;
    Stream.close d;
    pump ();
    !n
  in
  List.map
    (fun (feed, f) ->
       let n = ref 0 in
       let words = settled_words (fun () -> n := f ()) in
       (feed, !n, words))
    [ ("pull", pull); ("mapped", mapped); ("push", push) ]

let streaming_demo ~smoke ~scale =
  heading
    (Printf.sprintf
       "Streaming vs mapped vs materialized — deltablue at scale %.1f%s" scale
       (if smoke then " (smoke)" else ""));
  let bench = Suite.find_exn "deltablue" in
  let path = Filename.temp_file "hotpath_stream" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* Phase 1: record straight to disk, no materialized instance stream. *)
  let t0 = Unix.gettimeofday () in
  let oc = open_out_bin path in
  let summary =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Suite.record_stream ~scale bench ~sink:(output_string oc))
  in
  let record_s = Unix.gettimeofday () -. t0 in
  Format.printf "  streamed record: %d instances, %d paths, %d bytes in %.2fs@."
    summary.Recorder.cs_instances summary.Recorder.cs_paths
    (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> -1)
    record_s;
  pp_hwm "after streamed record";
  (* Replay timings are best-of with the read and mmap reps
     interleaved: the mmap-vs-read comparison gates CI, and running one
     variant's reps back to back would let a single slow scheduling
     patch poison that variant's whole sample while leaving the other
     untouched.  Interleaving makes both minima see the same noise
     environment. *)
  let reps = if smoke then 5 else 3 in
  let lines = ref [] in
  let report ~variant ~instances ~peak_rss_kb wall_s =
    Format.printf "  %-26s %.2fs (%.2e instances/s)@."
      (variant ^ " replay:") wall_s
      (float_of_int instances /. wall_s);
    lines :=
      bench_ingest_line ~variant ~scale ~instances ~wall_s ~peak_rss_kb
      :: !lines
  in
  let read_once () =
    match Serialize.Stream.open_file ~path with
    | Error e -> failwith e
    | Ok rd ->
      let result = Replay.run_mapped (module Net) ~delay:50 rd in
      Serialize.Stream.close rd;
      (match result with Error e -> failwith e | Ok o -> o)
  in
  let mmap_once () =
    match Serialize.Stream.Mapped.map_file ~path with
    | Error e -> failwith e
    | Ok m ->
      (match Replay.run_mapped (module Net) ~delay:50 m with
       | Error e -> failwith e
       | Ok o -> o)
  in
  (* RSS attribution passes, in order: pull-reader replay first (read(2)
     into reused buffers, one frame in memory at a time), then the
     zero-copy mapped replay — the watermark is monotonic, so whatever
     the mapped pass adds on top is the resident cost of the mapping
     itself.  The timed reps below run after both watermarks are
     established and cannot disturb them. *)
  Gc.compact ();
  let streamed = read_once () in
  let read_rss = vm_hwm_kb () in
  pp_hwm "after read replay";
  Gc.compact ();
  let mapped = mmap_once () in
  let mmap_rss = vm_hwm_kb () in
  pp_hwm "after mmap replay";
  let best_read = ref infinity and best_mmap = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (read_once ());
    let t = Unix.gettimeofday () -. t0 in
    if t < !best_read then best_read := t;
    let t0 = Unix.gettimeofday () in
    ignore (mmap_once ());
    let t = Unix.gettimeofday () -. t0 in
    if t < !best_mmap then best_mmap := t
  done;
  let read_s = !best_read and mmap_s = !best_mmap in
  report ~variant:"read" ~instances:streamed.Replay.total_instances
    ~peak_rss_kb:read_rss read_s;
  report ~variant:"mmap" ~instances:mapped.Replay.total_instances
    ~peak_rss_kb:mmap_rss mmap_s;
  (* Materialized load + replay of the same file, last: it holds the
     whole instance stream and dominates the final watermark. *)
  Gc.compact ();
  let materialized_s, materialized =
    let best = ref infinity and result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let recorded =
        match Serialize.load ~path with Error e -> failwith e | Ok r -> r
      in
      let o = Replay.run (module Net) ~delay:50 recorded in
      let t = Unix.gettimeofday () -. t0 in
      if t < !best then best := t;
      result := Some o
    done;
    (!best, Option.get !result)
  in
  report ~variant:"materialized"
    ~instances:materialized.Replay.total_instances
    ~peak_rss_kb:(vm_hwm_kb ()) materialized_s;
  pp_hwm "after materialized replay";
  let identical a b =
    a.Replay.total_instances = b.Replay.total_instances
    && a.Replay.predictions = b.Replay.predictions
    && a.Replay.predicted_at = b.Replay.predicted_at
    && a.Replay.freq = b.Replay.freq
    && a.Replay.captured = b.Replay.captured
    && a.Replay.profiled_instances = b.Replay.profiled_instances
    && a.Replay.captured_instances = b.Replay.captured_instances
    && a.Replay.counter_space = b.Replay.counter_space
    && a.Replay.profiling_ops = b.Replay.profiling_ops
    && a.Replay.collection_ops = b.Replay.collection_ops
  in
  let same = identical streamed materialized && identical streamed mapped in
  Format.printf "  outcomes bit-identical (read == mmap == materialized): %b@."
    same;
  if not same then exit 1;
  let decode = decode_allocation ~path in
  List.iter
    (fun (feed, n, words) ->
       Format.printf "  %-26s %d instances, %.0f words (%.4f words/inst)@."
         (feed ^ " decode:") n words
         (words /. float_of_int n))
    decode;
  if smoke then begin
    let worst =
      List.fold_left
        (fun m (_, n, words) -> Float.max m (words /. float_of_int n))
        0.0 decode
    in
    let decode_pass = worst <= decode_words_ceiling in
    Format.printf "  smoke gate (every feed's decode <= %.4f words/inst): %.4f %s@."
      decode_words_ceiling worst
      (if decode_pass then "PASS" else "FAIL");
    (* The mapped reader exists to beat the pull reader: it skips the
       read(2) round trips and the per-frame ring-buffer copies.  The
       timed region is decode + replay and the walk cost is common to
       both sides, so the decode advantage is a modest slice of the
       ratio; on a loaded 1-core box best-of-5 minima still jitter a few
       percent either way.  10% slack sits above that noise band and
       well below the signature of the regression class this gate
       exists to catch — a mapped path that re-grew a per-frame copy or
       lost its in-place decode shows up as categorically slower, not
       10% slower. *)
    let pass = mmap_s <= read_s *. 1.10 in
    Format.printf "  smoke gate (mmap %.2e >= read %.2e instances/s): %s@."
      (float_of_int mapped.Replay.total_instances /. mmap_s)
      (float_of_int streamed.Replay.total_instances /. read_s)
      (if pass then "PASS" else "FAIL");
    if not (decode_pass && pass) then exit 1
  end
  else begin
    let oc = open_out bench_ingest_file in
    List.iter (output_string oc) (List.rev !lines);
    close_out oc;
    Format.printf "  wrote %s@." bench_ingest_file
  end

(* ------------------------------------------------------------------ *)
(* Events overhead: emission must be ~free disabled, <3% enabled       *)
(* ------------------------------------------------------------------ *)

let events_overhead_demo ~scale =
  heading
    (Printf.sprintf "Event-stream overhead — deltablue at scale %.1f" scale);
  let bench = Suite.find_exn "deltablue" in
  let recorded = Suite.record ~scale bench in
  let n = Recorder.num_instances recorded in
  Format.printf "  trace: %d instances, %d paths@." n (Recorder.num_paths recorded);
  let path = Filename.temp_file "hotpath_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* The sink is opened once, outside the timed region: the claim priced
     here is per-window emission, not file open/close. *)
  let sink = Events.open_file path in
  let cases =
    [|
      (fun () -> Replay.run (module Net) ~delay:50 recorded);
      (* A null sink must behave exactly like not passing events at all. *)
      (fun () ->
        Replay.run ~events:(Replay.events Events.null) (module Net) ~delay:50
          recorded);
      (fun () ->
        Replay.run
          ~events:(Replay.events ~window:Replay.default_events_window sink)
          (module Net) ~delay:50 recorded);
    |]
  in
  (* Best of 15 per case: emission cost is per *window*, so the signal
     is small, and the minimum is the standard noise-resistant estimator
     for "how fast can this go".  The cases run rep by rep in
     alternation, so all three see the same host load (in sequential
     blocks, a load shift between blocks swamps the 1% budget), and each
     rep rotates which case goes first, so none always runs in the same
     slot.  The untimed first round is the warm-up and supplies the
     outcomes. *)
  let outcomes, best =
    Fun.protect
      ~finally:(fun () -> Events.close sink)
      (fun () ->
         let outcomes = Array.map (fun f -> f ()) cases in
         let best = Array.make (Array.length cases) infinity in
         let k = Array.length cases in
         for rep = 0 to 14 do
           for j = 0 to k - 1 do
             let i = (rep + j) mod k in
             let t0 = Unix.gettimeofday () in
             ignore (cases.(i) ());
             best.(i) <- min best.(i) (Unix.gettimeofday () -. t0)
           done
         done;
         (outcomes, best))
  in
  let baseline = outcomes.(0) and disabled = outcomes.(1)
  and enabled = outcomes.(2) in
  let baseline_s = best.(0) and disabled_s = best.(1)
  and enabled_s = best.(2) in
  let lines = Events.emitted sink in
  let overhead t = ((t -. baseline_s) /. baseline_s) *. 100.0 in
  Format.printf "  baseline (no events):      %.3fs (%.2e instances/s)@."
    baseline_s (float_of_int n /. baseline_s);
  Format.printf "  null sink (disabled):      %.3fs (%+.2f%%)@." disabled_s
    (overhead disabled_s);
  Format.printf "  file sink (every %d):    %.3fs (%+.2f%%), %d events@."
    Replay.default_events_window enabled_s (overhead enabled_s) lines;
  let identical o o' =
    o.Replay.predictions = o'.Replay.predictions
    && o.Replay.predicted_at = o'.Replay.predicted_at
    && o.Replay.freq = o'.Replay.freq
    && o.Replay.captured = o'.Replay.captured
    && o.Replay.profiled_instances = o'.Replay.profiled_instances
    && o.Replay.counter_space = o'.Replay.counter_space
    && o.Replay.profiling_ops = o'.Replay.profiling_ops
    && o.Replay.collection_ops = o'.Replay.collection_ops
  in
  let same = identical baseline disabled && identical baseline enabled in
  Format.printf "  outcomes bit-identical across all three: %b@." same;
  let disabled_ok = overhead disabled_s < 1.0
  and enabled_ok = overhead enabled_s < 3.0 in
  Format.printf "  overhead within budget (<1%% disabled, <3%% enabled): %b@."
    (disabled_ok && enabled_ok);
  if not (same && disabled_ok && enabled_ok) then exit 1

(* ------------------------------------------------------------------ *)
(* Replay kernel benchmark: packed loop vs monomorphized kernel vs      *)
(* mapped replay, with bit-identity checks and a recorded baseline      *)
(* (BENCH_replay.json)                                                  *)
(* ------------------------------------------------------------------ *)

let bench_replay_file = "BENCH_replay.json"

(* One line per measured variant, in the same flat JSON the event stream
   uses, so the baseline is greppable and parseable by Events.parse_line
   without a JSON dependency. *)
let bench_replay_line ~scheme ~variant ~scale ~instances ~delays ~wall_s
    ~speedup =
  let buf = Buffer.create 256 in
  Events.emit (Events.of_buffer buf) ~kind:"bench_replay"
    [
      ("scheme", Events.Str scheme);
      ("variant", Events.Str variant);
      (* Replay runs on one domain; the field keeps the row format the
         baseline gate below reads. *)
      ("jobs", Events.Int 1);
      ("scale", Events.Float scale);
      ("instances", Events.Int instances);
      ("delays", Events.Int delays);
      ("wall_s", Events.Float wall_s);
      ("instances_per_s", Events.Float (float_of_int instances /. wall_s));
      (* Aggregate lane throughput: the multiplexed pass advances every
         delay lane per trace instance, so lane-instances/s (n * delays /
         wall) is the figure comparable to running the delay sweep as
         separate passes. *)
      ( "lane_instances_per_s",
        Events.Float (float_of_int (instances * delays) /. wall_s) );
      ("speedup_vs_packed", Events.Float speedup);
    ];
  Buffer.contents buf

(* The committed baseline's packed->kernel speedup for one scheme: the
   one number in BENCH_replay.json that is a machine-independent ratio,
   which is why the smoke regression gate keys on it rather than on
   absolute instances/s. *)
let baseline_speedup ~scheme =
  match open_in bench_replay_file with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        let acc =
          match Events.parse_line line with
          | Error _ -> acc
          | Ok fields ->
            if
              Events.kind fields = Some "bench_replay"
              && Events.find_str fields "scheme" = Some scheme
              && Events.find_str fields "variant" = Some "kernel"
              && Events.find_int fields "jobs" = Some 1
            then Events.find_float fields "speedup_vs_packed"
            else acc
        in
        scan acc
    in
    let v = scan None in
    close_in ic;
    v

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

(* Allocation ceiling for the smoke gate, in words per instance-lane of
   the 8-lane path-profile-k2 replay of deltablue (minor plus major
   minus promoted words, so every word is counted once wherever it was
   allocated).  Like the recording gate it is exact: the count is a
   pure function of the code and the seed, whatever the host's load. *)
let kpath_words_ceiling = 0.36

let kernel_bench ~smoke ~scale =
  heading
    (Printf.sprintf "Replay kernels — deltablue at scale %.1f%s" scale
       (if smoke then " (smoke)" else ""));
  let bench = Suite.find_exn "deltablue" in
  let recorded = Suite.record ~scale bench in
  let n = Recorder.num_instances recorded in
  let delays = [ 2; 5; 10; 50; 100; 500; 1_000; 5_000 ] in
  let k = List.length delays in
  Format.printf "  trace: %d instances, %d paths; %d delay lanes@." n
    (Recorder.num_paths recorded) k;
  if (not smoke) && n < 1_000_000 then begin
    Format.printf "  FAIL: full kernel bench requires >= 1M instances@.";
    exit 1
  end;
  let ok = ref true in
  let check label cond =
    Format.printf "  %-52s %s@." label (if cond then "ok" else "FAIL");
    if not cond then ok := false
  in
  (* Bit-identity across all three loops, per scheme, before any timing:
     a fast wrong kernel is worthless. *)
  let schemes =
    List.map
      (fun name ->
         let s = Schemes.of_name_exn name in
         (name, s, Scheme.generic s))
      [ "net"; "path-profile"; "net-k2"; "path-profile-k2" ]
  in
  List.iter
    (fun (name, packed, generic) ->
       let reference = Replay.run_many generic ~delays recorded in
       let kernel = Replay.run_many packed ~delays recorded in
       check
         (Printf.sprintf "%s: kernel == packed loop" name)
         (List.for_all2 outcome_equal reference kernel))
    schemes;
  (* File replay decodes HOTPATH3 frames into batches and runs the same
     lane loops as materialized replay. *)
  let blob = Serialize.Stream.to_string recorded in
  let mapped_reader () =
    match Serialize.Stream.Mapped.of_string blob with
    | Ok m -> m
    | Error e -> failwith e
  in
  let replay_mapped packed m =
    match Replay.run_many_mapped packed ~delays m with
    | Ok os -> os
    | Error e -> failwith e
  in
  List.iter
    (fun (name, packed, _) ->
       if List.mem name [ "net"; "path-profile" ] then
         check
           (Printf.sprintf "%s: mapped == materialized" name)
           (List.for_all2 outcome_equal
              (Replay.run_many packed ~delays recorded)
              (replay_mapped packed (mapped_reader ()))))
    schemes;
  let kpath_words =
    allocated_words (fun () ->
        Replay.run_many (Schemes.of_name_exn "path-profile-k2") ~delays recorded)
    /. float_of_int (n * k)
  in
  Format.printf "  path-profile-k2: %.4f words per instance-lane@." kpath_words;
  (* Timings: best-of, same delay set everywhere, throughput in trace
     instances/s (n / wall — the multiplexed pass makes one traversal
     of the trace).  Best-of over enough reps that the minimum is
     stable: the smoke ratio gates compare two minima, and at smoke
     scale a single descheduled rep can swing one side by 30%. *)
  let reps = 5 in
  let time f =
    ignore (f ());
    List.fold_left min infinity
      (List.init reps (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (f ());
           Unix.gettimeofday () -. t0))
  in
  let lines = ref [] in
  let report ~scheme ~variant ~packed_s wall_s =
    let speedup = packed_s /. wall_s in
    Format.printf "  %-16s %-8s %8.3fs  %10.2e instances/s  %5.2fx@." scheme
      variant wall_s
      (float_of_int n /. wall_s)
      speedup;
    lines :=
      bench_replay_line ~scheme ~variant ~scale ~instances:n ~delays:k ~wall_s
        ~speedup
      :: !lines
  in
  let measured =
    List.map
      (fun (name, packed, generic) ->
         let packed_s = time (fun () -> Replay.run_many generic ~delays recorded) in
         report ~scheme:name ~variant:"packed" ~packed_s packed_s;
         let kernel_s = time (fun () -> Replay.run_many packed ~delays recorded) in
         report ~scheme:name ~variant:"kernel" ~packed_s kernel_s;
         (name, packed_s /. kernel_s))
      schemes
  in
  (* Mapped vs materialized, on the paper's schemes.  Both sides are
     timed here, rep by rep in alternation, rather than reusing the
     kernel time above: on a shared host a ratio of two minima taken
     seconds apart swings with the load (0.45x-0.86x over four smoke
     runs on a shared 2-vCPU VM), while alternating reps see the same
     load.  The mapped side
     times frame checks, decode and replay; each timed call gets a fresh
     reader, whose copy of the blob into its window stays untimed, as a
     file's mapping would. *)
  let mapped_ratios =
    List.filter_map
      (fun (name, packed, _) ->
         if List.mem name [ "net"; "path-profile" ] then begin
           let readers = Queue.of_seq (Seq.init (reps + 1) (fun _ -> mapped_reader ())) in
           let materialized () = Replay.run_many packed ~delays recorded
           and mapped () = replay_mapped packed (Queue.pop readers) in
           ignore (materialized ());
           ignore (mapped ());
           let mat_s = ref infinity and mapped_s = ref infinity in
           for _ = 1 to reps do
             let t0 = Unix.gettimeofday () in
             ignore (materialized ());
             let t1 = Unix.gettimeofday () in
             ignore (mapped ());
             let t2 = Unix.gettimeofday () in
             mat_s := min !mat_s (t1 -. t0);
             mapped_s := min !mapped_s (t2 -. t1)
           done;
           report ~scheme:name ~variant:"mapped" ~packed_s:!mat_s !mapped_s;
           Some (name, !mat_s /. !mapped_s)
         end
         else None)
      schemes
  in
  if smoke then begin
    (* Floor gate: mapped replay runs the same kernels over batches as
       materialized replay and adds only frame checks and decode, so
       its lane throughput must stay within 2x of [run_many] on
       the same trace; a mapped source that lost its kernel falls to
       ~0.1x. *)
    List.iter
      (fun (name, ratio) ->
         check
           (Printf.sprintf "%s: mapped %.2fx >= 0.5x materialized" name ratio)
           (ratio >= 0.5))
      mapped_ratios;
    (* Floor gate: a monomorphized kernel that loses to the packed loop
       it replaces is a regression outright, whatever the baseline file
       says.  Every scheme is held to >= 1.0x (measured best-of-5 on
       both sides, so the ratio is stable even at smoke scale); the
       flattened k-trie is additionally held to the 1.5x it was built to
       deliver over the hashtable walk. *)
    List.iter
      (fun (name, ratio) ->
         check
           (Printf.sprintf "%s: kernel %.2fx >= 1.0x over packed" name ratio)
           (ratio >= 1.0))
      measured;
    (match List.assoc_opt "path-profile-k2" measured with
     | Some ratio ->
       check
         (Printf.sprintf
            "path-profile-k2: flattened trie %.2fx >= 1.5x over packed" ratio)
         (ratio >= 1.5)
     | None -> ());
    check
      (Printf.sprintf "path-profile-k2: %.4f <= %.3f words/instance-lane"
         kpath_words kpath_words_ceiling)
      (kpath_words <= kpath_words_ceiling);
    (* Regression gate against the committed baseline: the packed->kernel
       speedup is a ratio of two loops over the same data on the same
       machine, so it transfers across hosts where raw instances/s does
       not.  >5% below the recorded ratio fails. *)
    List.iter
      (fun (name, measured) ->
         (* The ratio gate covers the paper's schemes only: the k-kernels'
            packed->kernel ratio hovers near 1x (they strip module
            indirection but keep the per-instance trie/counter walk), so
            a 5% band on it would gate on noise.  Their rows still land
            in the baseline file for trend reading. *)
         if List.mem name [ "net"; "path-profile" ] then
           match baseline_speedup ~scheme:name with
           | None ->
             Format.printf "  %s: no baseline in %s@." name bench_replay_file;
             ok := false
           | Some recorded_speedup ->
             let floor = 0.95 *. recorded_speedup in
             check
               (Printf.sprintf
                  "%s: kernel speedup %.2fx within 5%% of baseline %.2fx" name
                  measured recorded_speedup)
               (measured >= floor))
      measured
  end
  else begin
    let oc = open_out bench_replay_file in
    List.iter (output_string oc) (List.rev !lines);
    close_out oc;
    Format.printf "  wrote %s@." bench_replay_file
  end;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Full reproductions                                                  *)
(* ------------------------------------------------------------------ *)

let reproductions () =
  heading "Table 1 — benchmark set (measured vs paper)";
  print_string (Experiments.Table1.render ());
  heading "Table 2 — paths vs unique path heads (measured vs paper)";
  print_string (Experiments.Table2.render ());
  (* Figures 2 and 3 share the sweep; compute once. *)
  let figures = Hotpath_experiments.Figures23.compute () in
  let render_fig ~hit ~zoom title =
    heading title;
    print_string
      (Tablefmt.render (Hotpath_experiments.Figures23.to_table figures ~hit ~zoom))
  in
  render_fig ~hit:true ~zoom:true
    "Figure 2 (zoom) — hit rate vs profiled flow, <= 10% region";
  render_fig ~hit:false ~zoom:true
    "Figure 3 (zoom) — noise rate vs profiled flow, <= 10% region";
  heading "Figures 2/3 — summary of the average series";
  List.iter
    (fun su ->
       let show = function Some v -> Printf.sprintf "%.1f%%" v | None -> "n/a" in
       Format.printf
         "  %-13s hit@10%%flow=%s (%d benchmarks)  noise@10%%flow=%s  \
          hit@tau50=%.1f%%  noise@tau50=%.1f%%@."
         su.Hotpath_experiments.Figures23.su_scheme
         (show su.Hotpath_experiments.Figures23.su_hit_at_10pct)
         su.Hotpath_experiments.Figures23.su_hit_at_10pct_n
         (show su.Hotpath_experiments.Figures23.su_noise_at_10pct)
         su.Hotpath_experiments.Figures23.su_hit_at_delay50
         su.Hotpath_experiments.Figures23.su_noise_at_delay50)
    (Hotpath_experiments.Figures23.summarize figures);
  heading "Figure 4 — NET counter space normalized to path-profile";
  print_string (Experiments.Fig4.render ());
  heading "Figure 5 — Dynamo speedup over native (no-bail-out set, 8x flow)";
  print_string (Experiments.Fig5.render ());
  heading "Figure 5 (extended) — all benchmarks, showing gcc/go bail-out";
  print_string (Experiments.Fig5.render ~all:true ());
  heading "Ablation — NET variants (re-arm vs once vs last-executed-tail)";
  print_string (Experiments.Ablations.render_net_variants ());
  heading "Ablation — NET vs Boa branch-profile construction (Section 7)";
  print_string (Experiments.Ablations.render_boa ());
  heading "Ablation — hot-threshold sensitivity";
  print_string (Experiments.Ablations.render_thresholds ());
  heading "Ablation — Dynamo cost-model sensitivity (tau=50 averages)";
  print_string (Experiments.Ablations.render_cost_sensitivity ());
  heading "Offline — edge-vs-path showdown (Ball-Mataga-Sagiv)";
  print_string (Experiments.Offline.render_showdown ());
  heading "Offline — sampling profiler accuracy";
  print_string (Experiments.Offline.render_sampling ());
  heading "Phase-change study — retirement policies (Section 6.1 future work)";
  print_string (Experiments.Phases.render ());
  heading "Ablation — fragment-cache pressure policies (flush vs LRU)";
  print_string (Experiments.Ablations.render_cache_policies ());
  heading "Robustness — hit rates across 5 regenerated workload seeds";
  print_string (Experiments.Ablations.render_seed_robustness ())

(* ------------------------------------------------------------------ *)
(* Serve daemon: sustained ingest and per-tenant latency               *)
(* ------------------------------------------------------------------ *)

let serve_bench ~smoke ~scale =
  heading
    (Printf.sprintf "Serve daemon — concurrent tenants%s"
       (if smoke then " (smoke)" else ""));
  let bench = Suite.find_exn "compress" in
  let buf = Buffer.create (1 lsl 20) in
  let summary =
    Suite.record_stream ~scale bench ~sink:(Buffer.add_string buf)
  in
  let trace = Buffer.contents buf in
  Format.printf "  trace per tenant: %d instances, %d paths, %d bytes@."
    summary.Recorder.cs_instances summary.Recorder.cs_paths
    (String.length trace);
  let n_clients = if smoke then 4 else 8 in
  let sends_each = if smoke then 2 else 4 in
  let socket_path = Filename.temp_file "hotpath_serve" ".sock" in
  match
    Serve.Server.create ~queue_capacity:8 ~drain_burst:4 ~socket_path ()
  with
  | Error e ->
    Format.printf "  cannot start server: %s@." e;
    exit 1
  | Ok server ->
    let server_domain = Domain.spawn (fun () -> Serve.Server.run server) in
    if not (Serve.Client.wait_ready socket_path) then begin
      Format.printf "  server never became ready@.";
      exit 1
    end;
    let t0 = Unix.gettimeofday () in
    let per_client client =
      (* Each send is a distinct tenant: the latency sample is the whole
         exchange (connect, handshake, stream, replay, reply). *)
      List.init sends_each (fun k ->
          let tenant = Printf.sprintf "tenant-%d-%d" client k in
          let s0 = Unix.gettimeofday () in
          let reply =
            Serve.Client.send ~socket_path ~tenant ~scheme:"net"
              ~delays:[ 10; 50 ] ~chunk_bytes:65536 trace
          in
          let latency = Unix.gettimeofday () -. s0 in
          let ok =
            match reply with
            | Ok lines ->
              List.exists (fun f -> Events.kind f = Some "serve.ok") lines
            | Error _ -> false
          in
          (latency, ok))
    in
    let results =
      Pool.map ~cap:false ~jobs:n_clients per_client
        (List.init n_clients Fun.id)
      |> List.concat
    in
    let wall = Unix.gettimeofday () -. t0 in
    Serve.Server.stop server;
    Domain.join server_domain;
    let st = Serve.Server.stats server in
    let lats = Array.of_list (List.map fst results) in
    let oks = List.length (List.filter snd results) in
    let total = n_clients * sends_each in
    let ingest = float_of_int st.Serve.Server.instances /. wall in
    let pct p = 1000. *. Stats.percentile lats ~p in
    Format.printf "  %d clients x %d sends: %d/%d serve.ok in %.2fs@."
      n_clients sends_each oks total wall;
    Format.printf "  ingest: %.2e instances/s sustained (%d instances)@."
      ingest st.Serve.Server.instances;
    Format.printf "  tenant latency: p50=%.1fms p95=%.1fms p99=%.1fms@."
      (pct 50.) (pct 95.) (pct 99.);
    Format.printf "  server: completed=%d errored=%d queue high-water=%d@."
      st.Serve.Server.completed st.Serve.Server.errored
      st.Serve.Server.queue_high_water;
    if smoke then begin
      (* CI gate: every tenant served (zero dropped), no server-side
         errors, and sustained ingest above a floor set ~10x below what
         a loaded CI box measures. *)
      let floor = 100_000. in
      let pass =
        oks = total && st.Serve.Server.completed = total
        && st.Serve.Server.errored = 0 && ingest >= floor
      in
      Format.printf "  smoke gate (ok=%d/%d, errored=%d, ingest>=%.0e): %s@."
        oks total st.Serve.Server.errored floor
        (if pass then "PASS" else "FAIL");
      if not pass then exit 1
    end

(* ------------------------------------------------------------------ *)
(* Recording: instances/s and minor words per instance for each of the  *)
(* nine benchmarks (BENCH_record.json)                                  *)
(* ------------------------------------------------------------------ *)

let bench_record_file = "BENCH_record.json"

(* Allocation ceiling for the smoke gate, in minor words per instance
   over all nine recordings.  The count is a pure function of the code
   and the seeds, so the gate is absolute: no timing ratio, no noise
   margin.  It is not per benchmark: every new path is copied out of
   the segmenter once (its Path.t, signature and block array), and gcc
   mints one new path per 3.5 instances. *)
let record_words_ceiling = 8.0

let bench_record_line ~name ~scale ~instances ~paths ~wall_s ~words =
  let buf = Buffer.create 256 in
  Events.emit (Events.of_buffer buf) ~kind:"bench_record"
    [
      ("bench", Events.Str name);
      ("scale", Events.Float scale);
      ("instances", Events.Int instances);
      ("paths", Events.Int paths);
      ("wall_s", Events.Float wall_s);
      ("instances_per_s", Events.Float (float_of_int instances /. wall_s));
      ("minor_words_per_inst", Events.Float (words /. float_of_int instances));
    ];
  Buffer.contents buf

(* [Suite.record] exactly as e2ebench's [workloads.record] span times
   it: program generation included.  Wall time is the best of [reps]
   runs; the minor-word count is the same on every run. *)
let record_bench ~smoke ~scale =
  heading
    (Printf.sprintf "Recording — nine benchmarks at scale %g%s" scale
       (if smoke then " (smoke)" else ""));
  let reps = if smoke then 1 else 3 in
  let rows =
    List.map
      (fun (b : Suite.benchmark) ->
         let measure () =
           Gc.full_major ();
           let w0 = Gc.minor_words () in
           let t0 = Unix.gettimeofday () in
           let r = Suite.record ~scale b in
           let wall = Unix.gettimeofday () -. t0 in
           (r, wall, Gc.minor_words () -. w0)
         in
         let r, wall, words = measure () in
         let wall = ref wall in
         for _ = 2 to reps do
           let _, w, _ = measure () in
           wall := Float.min !wall w
         done;
         let n = Recorder.num_instances r in
         Format.printf "  %-10s %8d instances %6d paths  %.3e inst/s  %6.2f words/inst@."
           b.Suite.b_name n (Recorder.num_paths r)
           (float_of_int n /. !wall) (words /. float_of_int n);
         (b.Suite.b_name, n, Recorder.num_paths r, !wall, words))
      Suite.all
  in
  let sum f = List.fold_left (fun acc row -> acc +. f row) 0.0 rows in
  let instances = int_of_float (sum (fun (_, n, _, _, _) -> float_of_int n)) in
  let paths = int_of_float (sum (fun (_, _, p, _, _) -> float_of_int p)) in
  let wall = sum (fun (_, _, _, w, _) -> w) and words = sum (fun (_, _, _, _, w) -> w) in
  Format.printf "  %-10s %8d instances %6d paths  %.3e inst/s  %6.2f words/inst@." "all"
    instances paths (float_of_int instances /. wall) (words /. float_of_int instances);
  if smoke then begin
    let per_inst = words /. float_of_int instances in
    let ok = per_inst <= record_words_ceiling in
    Format.printf "  smoke gate (all nine <= %.0f minor words/inst): %.2f %s@."
      record_words_ceiling per_inst (if ok then "PASS" else "FAIL");
    if not ok then exit 1
  end
  else begin
    let oc = open_out bench_record_file in
    List.iter
      (fun (name, n, p, wall_s, words) ->
         output_string oc (bench_record_line ~name ~scale ~instances:n ~paths:p ~wall_s ~words))
      (rows @ [ ("all", instances, paths, wall, words) ]);
    close_out oc;
    Format.printf "  wrote %s@." bench_record_file
  end

(* ------------------------------------------------------------------ *)
(* Dynamo engine: instances/s and minor words per instance over the     *)
(* Dynamo set, one row per Figure 5 scheme (BENCH_dynamo.json)          *)
(* ------------------------------------------------------------------ *)

let bench_dynamo_file = "BENCH_dynamo.json"

(* Allocation ceiling for the smoke gate, in minor words per instance
   for each scheme over the five recordings.  Like the recording gate it
   is exact: the count is a pure function of the code and the seeds.  A
   path instance itself allocates nothing; what is left is per path
   (memos, installed fragments) and per run (the scheme's state, and
   static's program-wide estimate, which every run pays). *)
let dynamo_words_ceiling = 2.0

let bench_dynamo_line ~scheme ~delay ~scale ~instances ~wall_s ~words =
  let buf = Buffer.create 256 in
  Events.emit (Events.of_buffer buf) ~kind:"bench_dynamo"
    [
      ("scheme", Events.Str scheme);
      ("delay", Events.Int delay);
      ("scale", Events.Float scale);
      ("instances", Events.Int instances);
      ("wall_s", Events.Float wall_s);
      ("instances_per_s", Events.Float (float_of_int instances /. wall_s));
      ("minor_words_per_inst", Events.Float (words /. float_of_int instances));
    ];
  Buffer.contents buf

(* [Engine.run] at delay 50 over the five Dynamo-set recordings at
   Figure 5's e2ebench scale (2), as e2ebench's [dynamo.engine] span
   times it: scheme creation included, so static pays the Wu-Larus
   estimate of each program on every pass.  The gate reads every pass
   (allocation is the same on each); wall time is the best pass. *)
let dynamo_bench ~smoke =
  let scale = 2.0 and delay = 50 in
  heading
    (Printf.sprintf "Dynamo engine — Dynamo set at scale %g, delay %d%s" scale delay
       (if smoke then " (smoke)" else ""));
  let recordings = List.map (fun b -> Suite.record ~scale b) Suite.dynamo_set in
  let instances =
    List.fold_left (fun acc r -> acc + Recorder.num_instances r) 0 recordings
  in
  let per_inst words = words /. float_of_int instances in
  let passes = if smoke then 2 else 4 in
  let rows =
    List.map
      (fun scheme ->
         let config =
           Engine.config ~scheme:(Schemes.of_name_exn scheme)
             ~scheme_costs:(Engine.costs_for ~scheme Cost_model.default)
             ~delay ()
         in
         let measure () =
           Gc.full_major ();
           let w0 = Gc.minor_words () in
           let t0 = Unix.gettimeofday () in
           List.iter (fun r -> ignore (Engine.run config r : Engine.result)) recordings;
           (Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)
         in
         let passes = List.init passes (fun _ -> measure ()) in
         let words = List.fold_left (fun m (_, w) -> Float.max m w) 0.0 passes in
         let wall = List.fold_left (fun m (w, _) -> Float.min m w) infinity passes in
         Format.printf "  %-13s %8d instances  %.3e inst/s  %6.2f words/inst@." scheme
           instances
           (float_of_int instances /. wall)
           (per_inst words);
         (scheme, wall, words))
      [ "net"; "path-profile"; "net-k2"; "static" ]
  in
  if smoke then begin
    let failed =
      List.filter (fun (_, _, words) -> per_inst words > dynamo_words_ceiling) rows
    in
    Format.printf "  smoke gate (every scheme <= %.0f minor words/inst): %s@."
      dynamo_words_ceiling
      (if failed = [] then "PASS" else "FAIL");
    if failed <> [] then exit 1
  end
  else begin
    let oc = open_out bench_dynamo_file in
    List.iter
      (fun (scheme, wall_s, words) ->
         output_string oc (bench_dynamo_line ~scheme ~delay ~scale ~instances ~wall_s ~words))
      rows;
    close_out oc;
    Format.printf "  wrote %s@." bench_dynamo_file
  end

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (* Microbenchmarks run first: the reproductions cache hundreds of MB of
     recordings, and the resulting GC pressure would distort per-op
     timings. *)
  if mode = "all" || mode = "quick" then begin
    heading "Bechamel microbenchmarks — profiling primitives";
    run_bechamel (ops_tests ());
    heading "Bechamel microbenchmarks — per-experiment kernels";
    run_bechamel (experiment_tests ())
  end;
  if mode = "events" then
    (* Prices the observability layer: a replay with events disabled must
       match the no-events baseline, and per-window emission to a real
       file must stay under 3% of throughput. *)
    events_overhead_demo
      ~scale:(if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 32.0);
  if mode = "kernel" then begin
    (* Packed loop vs monomorphized kernels vs mapped replay.  Full mode measures a 1M+-instance trace and (re)writes the
       BENCH_replay.json baseline; --smoke is the CI gate — identity
       assertions plus a ratio regression check against that baseline. *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    let scale =
      if smoke then 2.0
      else if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2)
      else 16.0
    in
    kernel_bench ~smoke ~scale
  end;
  if mode = "serve" then begin
    (* The serving path priced end to end: concurrent clients stream
       traces at a daemon, per-tenant latency percentiles and sustained
       ingest rate come back.  --smoke is the CI gate. *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    let scale =
      if smoke then 1.0
      else if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2)
      else 4.0
    in
    serve_bench ~smoke ~scale
  end;
  if mode = "streaming" then begin
    (* Its own mode, not part of "all": VmHWM is a process-lifetime
       watermark, so the demonstration needs a process that has not
       already materialized the reproduction caches.  Full mode
       (re)writes the BENCH_ingest.json baseline; --smoke is the CI
       gate (bit-identity plus mmap >= read throughput). *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    let scale =
      (* Smoke runs at scale 4: big enough that the replay phases take
         tens of milliseconds (the mmap-vs-read gate compares best-of
         minima, and shorter runs put scheduler jitter at the same order
         as the signal), small enough for a CI lane. *)
      if smoke then 4.0
      else if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2)
      else 8.0
    in
    streaming_demo ~smoke ~scale
  end;
  if mode = "record" then begin
    (* Recording priced per benchmark, at scale 1 either way (about a
       second of recording), so every run is comparable with the
       checked-in baseline.  Full mode times the best of three runs and
       (re)writes BENCH_record.json; --smoke runs once and is the CI
       allocation gate. *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    record_bench ~smoke ~scale:1.0
  end;
  if mode = "dynamo" then begin
    (* The Dynamo engine priced per Figure 5 scheme at e2ebench's Figure 5
       scale either way.  Full mode times the best of three runs and
       (re)writes BENCH_dynamo.json; --smoke runs once and is the CI
       allocation gate. *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    dynamo_bench ~smoke
  end;
  if mode = "all" || mode = "tables" then reproductions ()
