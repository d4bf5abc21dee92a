(* Command-line interface: regenerate every table and figure of the paper,
   inspect workloads, record/replay traces, and run individual experiments. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let scale_arg =
  let doc =
    "Flow scale: fraction of each benchmark's calibrated path-instance \
     budget to record (1.0 = full)."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let jobs_arg =
  let doc =
    "Fan experiment jobs over N work-pool domains (capped at the \
     machine's recommended domain count).  Output is identical at every \
     job count."
  in
  let pos_int =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n >= 1 -> Ok n
      | Ok n -> Error (`Msg (Printf.sprintf "jobs must be >= 1, got %d" n))
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(
    value
    & opt pos_int (Hotpath_util.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of an aligned text table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let zoom_arg =
  let doc = "Restrict to the practically relevant region (<= 10% profiled flow)." in
  Arg.(value & flag & info [ "zoom" ] ~doc)

let bench_arg =
  let doc = "Benchmark name (see bench-list)." in
  Arg.(required & opt (some string) None & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let delay_arg =
  let doc = "Prediction delay (tau)." in
  Arg.(value & opt int 50 & info [ "delay"; "d" ] ~docv:"N" ~doc)

let scheme_arg =
  let doc =
    "Prediction scheme: net | net-once | let | path-profile | static | \
     net-k<k> | path-profile-k<k> (k-iteration families, 1 <= k <= 32) | \
     net-kauto | path-profile-kauto (statically-selected per-head k)."
  in
  (* Validated at parse time (a bad name is a usage error, not an
     uncaught exception), but carried as the string: serve-send ships
     the name over the wire and the others re-resolve it memoized. *)
  let scheme_conv =
    Arg.conv
      ( (fun s ->
          match Hotpath_prediction.Schemes.of_name s with
          | Ok _ -> Ok s
          | Error msg -> Error (`Msg msg)),
        Format.pp_print_string )
  in
  Arg.(value & opt scheme_conv "net" & info [ "scheme"; "s" ] ~docv:"NAME" ~doc)

let emit ~csv tbl =
  print_string
    (if csv then Hotpath_util.Tablefmt.render_csv tbl
     else Hotpath_util.Tablefmt.render tbl)

let events_arg =
  let doc =
    "Write a structured JSON-Lines event stream to $(docv) (per-window \
     replay samples, sweep progress, Dynamo flush/bail incidents; see the \
     README's Observability section).  Emission never changes computed \
     results."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let events_window_arg =
  let doc = "Event sample window, in path instances." in
  Arg.(
    value
    & opt int Hotpath_prediction.Replay.default_events_window
    & info [ "events-window" ] ~docv:"N" ~doc)

(* [--events FILE] opens a sink around [f]; no flag means the null sink,
   which every producer treats as "disabled". *)
let with_events_sink events f =
  match events with
  | None -> f Hotpath_util.Events.null
  | Some path ->
    let sink = Hotpath_util.Events.open_file path in
    Fun.protect
      ~finally:(fun () -> Hotpath_util.Events.close sink)
      (fun () -> f sink)

let scheme_of_string name =
  match Hotpath_prediction.Schemes.of_name name with
  | Ok m -> m
  | Error msg -> raise (Invalid_argument msg)

(* ------------------------------------------------------------------ *)
(* Tables and figures                                                  *)
(* ------------------------------------------------------------------ *)

let table1_cmd =
  let run scale csv =
    emit ~csv (Hotpath_experiments.Table1.to_table (Hotpath_experiments.Table1.compute ~scale ()))
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Benchmark set: paths, flow, 0.1% hot set")
    Term.(const run $ scale_arg $ csv_arg)

let table2_cmd =
  let run scale csv =
    emit ~csv (Hotpath_experiments.Table2.to_table (Hotpath_experiments.Table2.compute ~scale ()))
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Paths vs unique path heads")
    Term.(const run $ scale_arg $ csv_arg)

let fig_cmd ~name ~doc ~hit =
  let run scale zoom csv jobs =
    let t, stats = Hotpath_experiments.Figures23.compute_timed ~scale ~jobs () in
    emit ~csv (Hotpath_experiments.Figures23.to_table t ~hit ~zoom);
    if not csv then begin
      print_newline ();
      Format.printf "%a@." Hotpath_experiments.Figures23.pp_sweep_stats stats;
      print_endline "Summary (average series):";
      List.iter
        (fun su ->
           let show = function Some v -> Printf.sprintf "%.1f%%" v | None -> "n/a" in
           Printf.printf
             "  %-13s hit@10%%flow=%s (%d benchmarks) noise@10%%flow=%s (%d) \
              hit@tau50=%.1f%% noise@tau50=%.1f%%\n"
             su.Hotpath_experiments.Figures23.su_scheme
             (show su.Hotpath_experiments.Figures23.su_hit_at_10pct)
             su.Hotpath_experiments.Figures23.su_hit_at_10pct_n
             (show su.Hotpath_experiments.Figures23.su_noise_at_10pct)
             su.Hotpath_experiments.Figures23.su_noise_at_10pct_n
             su.Hotpath_experiments.Figures23.su_hit_at_delay50
             su.Hotpath_experiments.Figures23.su_noise_at_delay50)
        (Hotpath_experiments.Figures23.summarize t)
    end
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ scale_arg $ zoom_arg $ csv_arg $ jobs_arg)

let fig2_cmd = fig_cmd ~name:"fig2" ~doc:"Hit rate vs profiled flow (both schemes)" ~hit:true

let fig3_cmd =
  fig_cmd ~name:"fig3" ~doc:"Noise rate vs profiled flow (both schemes)" ~hit:false

let fig4_cmd =
  let run scale csv jobs =
    emit ~csv
      (Hotpath_experiments.Fig4.to_table
         (Hotpath_experiments.Fig4.compute ~scale ~jobs ()))
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"NET counter space normalized to path-profile-based prediction")
    Term.(const run $ scale_arg $ csv_arg $ jobs_arg)

let fig5_cmd =
  let all_arg =
    let doc = "Include the benchmarks that bail out (gcc, go, ...)." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let fig5_scale_arg =
    let doc = "Flow scale for the Dynamo runs (default 8.0; see EXPERIMENTS.md)." in
    Arg.(
      value
      & opt float Hotpath_experiments.Fig5.default_scale
      & info [ "scale" ] ~docv:"S" ~doc)
  in
  let run scale all csv jobs =
    let rows =
      if all then Hotpath_experiments.Fig5.compute_all ~scale ~jobs ()
      else Hotpath_experiments.Fig5.compute ~scale ~jobs ()
    in
    emit ~csv (Hotpath_experiments.Fig5.to_table rows)
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Dynamo speedup over native execution (NET vs path-profile)")
    Term.(const run $ fig5_scale_arg $ all_arg $ csv_arg $ jobs_arg)

let ablations_cmd =
  let which_arg =
    let doc = "Study: net-variants | boa | thresholds | costs | cache | seeds | all." in
    Arg.(value & opt string "all" & info [ "which"; "w" ] ~docv:"STUDY" ~doc)
  in
  let run scale which jobs =
    let module A = Hotpath_experiments.Ablations in
    if which = "all" || which = "net-variants" then begin
      print_endline "== NET variants (re-arm vs once vs last-executed-tail) ==";
      print_string (A.render_net_variants ~scale ~jobs ())
    end;
    if which = "all" || which = "boa" then begin
      print_endline "== NET vs Boa branch-profile construction (Section 7) ==";
      print_string (A.render_boa ~scale ~jobs ())
    end;
    if which = "all" || which = "thresholds" then begin
      print_endline "== Hot-threshold sensitivity ==";
      print_string (A.render_thresholds ~scale ~jobs ())
    end;
    if which = "all" || which = "costs" then begin
      print_endline "== Cost-model sensitivity (Figure 5 at tau=50) ==";
      print_string (A.render_cost_sensitivity ())
    end;
    if which = "all" || which = "cache" then begin
      print_endline "== Cache-pressure policies (flush vs LRU, li, tau=50) ==";
      print_string (A.render_cache_policies ())
    end;
    if which = "all" || which = "seeds" then begin
      print_endline "== Seed robustness (5 regenerated workloads per benchmark) ==";
      print_string (A.render_seed_robustness ~jobs ())
    end
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Ablation studies: NET variants, Boa comparison, threshold sensitivity")
    Term.(const run $ scale_arg $ which_arg $ jobs_arg)

let offline_cmd =
  let which_arg =
    let doc = "Study: showdown | sampling | all." in
    Arg.(value & opt string "all" & info [ "which"; "w" ] ~docv:"STUDY" ~doc)
  in
  let run scale which =
    let module O = Hotpath_experiments.Offline in
    if which = "all" || which = "showdown" then begin
      print_endline "== Edge-vs-path showdown (Ball-Mataga-Sagiv, Section 7) ==";
      print_string (O.render_showdown ~scale ())
    end;
    if which = "all" || which = "sampling" then begin
      print_endline "== Sampling profiler accuracy ==";
      print_string (O.render_sampling ~scale ())
    end
  in
  Cmd.v
    (Cmd.info "offline"
       ~doc:"Offline-profiling comparisons: edge-vs-path showdown, sampling accuracy")
    Term.(const run $ scale_arg $ which_arg)

let phases_cmd =
  let window_arg =
    let doc = "Metric window, in path instances." in
    Arg.(value & opt int 8192 & info [ "window" ] ~docv:"N" ~doc)
  in
  let run delay window =
    print_endline
      "Phase-change study: NET under four path-retirement policies (Section 6.1)";
    print_string (Hotpath_experiments.Phases.render ~delay ~window ())
  in
  Cmd.v
    (Cmd.info "phases"
       ~doc:"Phase-aware metrics with path retirement (the paper's future work)")
    Term.(const run $ delay_arg $ window_arg)

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let run scale bench events events_window =
    let module Sweep = Hotpath_metrics.Sweep in
    let b = Hotpath_workloads.Suite.find_exn bench in
    let r = Hotpath_experiments.Runs.load ~scale b in
    with_events_sink events (fun sink ->
      List.iter
        (fun (scheme_name, scheme) ->
           let points, timing =
             Sweep.run_timed ~events:sink ~events_window scheme
               r.Hotpath_experiments.Runs.recorded
               ~hot:r.Hotpath_experiments.Runs.hot ~delays:Sweep.default_delays
           in
           Printf.printf "%s / %s:\n" scheme_name bench;
           List.iter
             (fun p ->
                Printf.printf
                  "  delay=%-8d profiled=%6.2f%% hit=%6.1f%% noise=%6.1f%% \
                   preds=%-6d counters=%d\n"
                  p.Sweep.delay p.Sweep.profiled_pct p.Sweep.hit_rate
                  p.Sweep.noise_rate p.Sweep.predictions p.Sweep.counter_space)
             points;
           Format.printf "  %a@." Sweep.pp_timing timing)
        Hotpath_experiments.Figures23.schemes;
      Hotpath_util.Events.registry_snapshot sink)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Delay sweep for one benchmark, both schemes (all delays multiplexed \
          through one trace pass)")
    Term.(const run $ scale_arg $ bench_arg $ events_arg $ events_window_arg)

let dynamo_cmd =
  let run scale bench scheme delay events events_window =
    let module E = Hotpath_dynamo.Engine in
    (* "phases" is not a Table 1 benchmark: it is the deterministic
       phase-change workload of Section 6.1, exposed here so the flush
       heuristic can be watched through --events. *)
    let recorded =
      if bench = "phases" then
        Hotpath_workloads.Suite.record_phased
          ~max_paths:(max 1000 (int_of_float (scale *. 120_000.0)))
          ()
      else
        let b = Hotpath_workloads.Suite.find_exn bench in
        (Hotpath_experiments.Runs.load ~scale b).Hotpath_experiments.Runs.recorded
    in
    let cost = Hotpath_dynamo.Cost_model.default in
    let packed = scheme_of_string scheme in
    let costs = E.costs_for ~scheme cost in
    with_events_sink events (fun sink ->
      let config =
        E.config ~cost ~scheme:packed ~scheme_costs:costs ~delay ~events:sink
          ~events_window ()
      in
      let result = E.run config recorded in
      Format.printf "%a@." E.pp_result result)
  in
  Cmd.v
    (Cmd.info "dynamo"
       ~doc:
         "Run the Dynamo simulator on one benchmark (or the 'phases' \
          phase-change workload)")
    Term.(
      const run $ scale_arg $ bench_arg $ scheme_arg $ delay_arg $ events_arg
      $ events_window_arg)

let online_cmd =
  let run scale bench scheme delay =
    let module E = Hotpath_dynamo.Engine in
    let b = Hotpath_workloads.Suite.find_exn bench in
    let program, behavior =
      Hotpath_workloads.Generator.build b.Hotpath_workloads.Suite.b_spec
        ~seed:b.Hotpath_workloads.Suite.b_seed
    in
    let cost = Hotpath_dynamo.Cost_model.default in
    let packed = scheme_of_string scheme in
    let costs = E.costs_for ~scheme cost in
    let config = E.config ~cost ~scheme:packed ~scheme_costs:costs ~delay () in
    let max_paths =
      max 1000
        (int_of_float (scale *. float_of_int b.Hotpath_workloads.Suite.b_flow))
    in
    let o =
      Hotpath_dynamo.Online.run ~max_paths ~max_steps:(max_paths * 200) ~config
        program behavior
        ~rng:(Hotpath_util.Prng.create ~seed:(b.Hotpath_workloads.Suite.b_seed * 7919))
    in
    Printf.printf "live run: %d instances, %d distinct paths\n"
      o.Hotpath_dynamo.Online.o_instances o.Hotpath_dynamo.Online.o_paths;
    Format.printf "%a@." E.pp_result o.Hotpath_dynamo.Online.o_result
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:"Run the live Dynamo driver (no recording step) on one benchmark")
    Term.(const run $ scale_arg $ bench_arg $ scheme_arg $ delay_arg)

let paths_cmd =
  let top_arg =
    let doc = "How many of the hottest paths to list." in
    Arg.(value & opt int 15 & info [ "top"; "n" ] ~docv:"N" ~doc)
  in
  let run scale bench top csv =
    let b = Hotpath_workloads.Suite.find_exn bench in
    let run = Hotpath_experiments.Runs.load ~scale b in
    let recorded = run.Hotpath_experiments.Runs.recorded in
    let module R = Hotpath_trace.Recorder in
    Printf.printf
      "%s: %d instances, %d distinct paths, %d unique heads, %d loop heads\n" bench
      (R.num_instances recorded) (R.num_paths recorded)
      (List.length (Hotpath_trace.Path_table.unique_heads recorded.R.table))
      (R.unique_loop_heads recorded);
    let profile = Hotpath_profiling.Bit_tracing.profile recorded in
    let tbl =
      Hotpath_util.Tablefmt.create
        ~columns:
          Hotpath_util.Tablefmt.
            [ ("Rank", Right); ("Signature", Left); ("Blocks", Right);
              ("Instrs", Right); ("Freq", Right); ("%Flow", Right);
              ("End", Left) ]
    in
    Array.iteri
      (fun i (p, freq) ->
         if i < top then
           Hotpath_util.Tablefmt.add_row tbl
             [
               string_of_int (i + 1);
               Hotpath_trace.Signature.to_string p.Hotpath_trace.Path.signature;
               string_of_int (Array.length p.Hotpath_trace.Path.blocks);
               string_of_int p.Hotpath_trace.Path.n_instrs;
               Hotpath_util.Tablefmt.cell_int freq;
               Hotpath_util.Tablefmt.cell_pct ~digits:2
                 (100.0 *. float_of_int freq
                  /. float_of_int (R.num_instances recorded));
               Hotpath_trace.Path.end_kind_to_string p.Hotpath_trace.Path.end_kind;
             ])
      profile.Hotpath_profiling.Bit_tracing.entries;
    emit ~csv tbl
  in
  Cmd.v
    (Cmd.info "paths" ~doc:"Show the hottest recorded paths of a benchmark")
    Term.(const run $ scale_arg $ bench_arg $ top_arg $ csv_arg)

let dot_cmd =
  let out_arg =
    let doc = "Output file (default: <bench>.dot)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let run bench out =
    let b = Hotpath_workloads.Suite.find_exn bench in
    let program, _ = Hotpath_workloads.Generator.build b.Hotpath_workloads.Suite.b_spec
        ~seed:b.Hotpath_workloads.Suite.b_seed
    in
    let path = Option.value ~default:(bench ^ ".dot") out in
    let oc = open_out path in
    output_string oc (Hotpath_cfg.Cfg.to_dot program);
    close_out oc;
    Printf.printf "wrote %s (%d blocks)\n" path
      (Array.length program.Hotpath_cfg.Cfg.blocks)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a benchmark's CFG as Graphviz")
    Term.(const run $ bench_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* Trace files                                                         *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  let doc = "Trace file path." in
  Arg.(required & opt (some string) None & info [ "trace"; "t" ] ~docv:"FILE" ~doc)

let stream_arg =
  let doc =
    "Replay in one pass, pulling one frame at a time, so memory stays \
     constant in the trace length.  The hot set cannot be known \
     mid-stream, so window events carry no hits/noise fields."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let record_cmd =
  let run scale bench trace events =
    let b = Hotpath_workloads.Suite.find_exn bench in
    let written =
      with_events_sink events (fun sink ->
        match
          let oc = open_out_bin trace in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
               let summary =
                 Hotpath_workloads.Suite.record_stream ~scale ~events:sink b
                   ~sink:(output_string oc)
               in
               close_out oc;
               summary)
        with
        | summary -> Ok summary
        | exception Sys_error e -> Error e)
    in
    match written with
    | Error e ->
      Printf.eprintf "cannot write %s: %s\n" trace e;
      exit 1
    | Ok summary ->
      Printf.printf "recorded %d instances (%d paths) of %s into %s\n"
        summary.Hotpath_trace.Recorder.cs_instances
        summary.Hotpath_trace.Recorder.cs_paths bench trace
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Record a benchmark's trace into a file, streaming it as it runs")
    Term.(const run $ scale_arg $ bench_arg $ trace_arg $ events_arg)

let replay_cmd =
  let run trace scheme delay stream events events_window =
    let module Replay = Hotpath_prediction.Replay in
    let report outcome =
      let hot =
        Hotpath_metrics.Hot_set.of_outcome outcome
          ~threshold:Hotpath_workloads.Suite.hot_threshold
      in
      let rates = Hotpath_metrics.Rates.operational outcome hot in
      Format.printf "%a@." Replay.pp_summary outcome;
      Format.printf "%a@." Hotpath_metrics.Rates.pp rates
    in
    let fail e =
      Printf.eprintf "cannot load %s: %s\n" trace e;
      exit 1
    in
    with_events_sink events (fun sink ->
      (if stream then
         (* Single pass: the hot set cannot be known mid-stream, so the
            window samples carry no hits/noise fields.  Regular files are
            mapped; anything the mapping declines (pipes, fifos) is read
            through the pull feed — one parser, byte-identical outcomes
            either way. *)
         let module Stream = Hotpath_trace.Serialize.Stream in
         let ev = Replay.events ~window:events_window sink in
         let opened =
           match Stream.Mapped.map_file ~path:trace with
           | Ok _ as m -> m
           | Error _ -> Stream.open_file ~path:trace
         in
         match opened with
         | Error e -> fail e
         | Ok rd ->
           let result =
             Replay.run_mapped ~events:ev (scheme_of_string scheme) ~delay rd
           in
           Stream.close rd;
           (match result with Error e -> fail e | Ok outcome -> report outcome)
       else
         match Hotpath_trace.Serialize.load ~path:trace with
         | Error e -> fail e
         | Ok recorded ->
           (* Materialized replay knows the full-run frequencies up front,
              so the samples can carry ground-truth hits/noise. *)
           let hot =
             Hotpath_metrics.Hot_set.compute
               ~freq:(Hotpath_trace.Recorder.frequencies recorded)
               ~total_flow:(Hotpath_trace.Recorder.num_instances recorded)
               ~threshold:Hotpath_workloads.Suite.hot_threshold
           in
           let ev =
             Replay.events ~window:events_window
               ~is_hot:(Hotpath_metrics.Hot_set.is_hot hot) sink
           in
           report (Replay.run ~events:ev (scheme_of_string scheme) ~delay recorded));
      Hotpath_util.Events.registry_snapshot sink)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a recorded trace file under a prediction scheme")
    Term.(
      const run $ trace_arg $ scheme_arg $ delay_arg $ stream_arg $ events_arg
      $ events_window_arg)

(* ------------------------------------------------------------------ *)
(* Static analysis / linting                                           *)
(* ------------------------------------------------------------------ *)

let static_cmd =
  let module SR = Hotpath_experiments.Static_report in
  let bench_opt =
    let doc =
      "Benchmark name: drill down to the per-head estimated-vs-measured \
       table (default: the all-benchmark summary)."
    in
    Arg.(value & opt (some string) None & info [ "bench"; "b" ] ~docv:"NAME" ~doc)
  in
  let top_arg =
    let doc = "Heads to list in the per-benchmark drill-down." in
    Arg.(value & opt int 12 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run scale jobs csv bench top =
    match bench with
    | None ->
      if csv then print_string (SR.render_csv ~scale ~jobs ())
      else print_string (SR.render ~scale ~jobs ())
    | Some name ->
      print_string
        (SR.render_bench ~scale ~top (Hotpath_workloads.Suite.find_exn name))
  in
  Cmd.v
    (Cmd.info "static"
       ~doc:
         "Static Wu-Larus frequency estimate vs measured hot heads: rank \
          correlation, top-N overlap, and the kauto per-head window \
          selection")
    Term.(const run $ scale_arg $ jobs_arg $ csv_arg $ bench_opt $ top_arg)

let check_cmd =
  let module Diag = Hotpath_analysis.Diag in
  let bench_opt =
    let doc = "Check one benchmark's generated program (default: the whole suite)." in
    Arg.(value & opt (some string) None & info [ "bench"; "b" ] ~docv:"NAME" ~doc)
  in
  let trace_opt =
    let doc =
      "Lint a trace file instead: program well-formedness plus \
       trace-vs-program consistency (path structure, transfer legality, \
       arrival hand-offs)."
    in
    Arg.(value & opt (some string) None & info [ "trace"; "t" ] ~docv:"FILE" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: human | jsonl (one \"check\" event per diagnostic \
       plus a final \"check.done\" with totals, renderable by \
       events-summary)."
    in
    Arg.(value & opt string "human" & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let report_flag =
    let doc =
      "Also print each program's static-analysis report: per-procedure \
       loops, nesting, reducibility and Ball-Larus path counts, plus the \
       NET-vs-path-profile counter-space bounds (human format only)."
    in
    Arg.(value & flag & info [ "report" ] ~doc)
  in
  let run bench trace format report =
    let jsonl =
      match format with
      | "jsonl" -> true
      | "human" -> false
      | other ->
        raise
          (Invalid_argument
             (Printf.sprintf "unknown format %s (try human|jsonl)" other))
    in
    let subjects =
      match trace with
      | Some file -> [ (file, Hotpath_trace.Check.file file, None) ]
      | None ->
        let benches =
          match bench with
          | Some name -> [ Hotpath_workloads.Suite.find_exn name ]
          | None -> Hotpath_workloads.Suite.all
        in
        List.map
          (fun b ->
             let program = Hotpath_workloads.Suite.program b in
             ( b.Hotpath_workloads.Suite.b_name,
               Hotpath_trace.Check.program program,
               Some program ))
          benches
    in
    let sink =
      if jsonl then Hotpath_util.Events.of_channel stdout
      else Hotpath_util.Events.null
    in
    let errors = ref 0 and warnings = ref 0 and infos = ref 0 in
    List.iter
      (fun (name, diags, program) ->
         errors := !errors + Diag.count Diag.Error diags;
         warnings := !warnings + Diag.count Diag.Warning diags;
         infos := !infos + Diag.count Diag.Info diags;
         if jsonl then
           List.iter
             (fun d ->
                Hotpath_util.Events.check_diag sink ~subject:name
                  ~code:d.Diag.code
                  ~severity:(Diag.severity_to_string d.Diag.severity)
                  ~loc:(Diag.location_to_string d.Diag.loc)
                  ~message:d.Diag.message)
             diags
         else begin
           Printf.printf "== %s ==\n" name;
           List.iter (fun d -> print_endline ("  " ^ Diag.to_string d)) diags;
           Printf.printf "  %d errors, %d warnings\n"
             (Diag.count Diag.Error diags)
             (Diag.count Diag.Warning diags);
           match program with
           | Some p when report -> print_string (Hotpath_analysis.Report.render p)
           | _ -> ()
         end)
      subjects;
    if jsonl then
      Hotpath_util.Events.check_done sink ~subjects:(List.length subjects)
        ~errors:!errors ~warnings:!warnings ~infos:!infos
    else
      Printf.printf "check: %d subjects, %d errors, %d warnings\n"
        (List.length subjects) !errors !warnings;
    if !errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Lint benchmark programs (or a trace file): structure, \
          reachability, reducibility, call/return pairing, Ball-Larus \
          path-count explosion, trace consistency.  Exits non-zero on any \
          error-severity diagnostic.")
    Term.(const run $ bench_opt $ trace_opt $ format_arg $ report_flag)

let events_summary_cmd =
  let file_arg =
    let doc = "Event stream file (JSON lines, as written by --events)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Hotpath_experiments.Events_summary.of_file file with
    | Error e ->
      Printf.eprintf "cannot summarize %s: %s\n" file e;
      exit 1
    | Ok t -> print_string (Hotpath_experiments.Events_summary.render t)
  in
  Cmd.v
    (Cmd.info "events-summary"
       ~doc:
         "Render an --events stream as per-window tables, flagging \
          phase-change windows")
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix domain socket path." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let queue_arg =
    let doc =
      "In-flight decoded chunks per tenant before backpressure (the \
       tenant's socket leaves the read set until the replay drains)."
    in
    Arg.(value & opt int 8 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let burst_arg =
    let doc = "Chunks replayed per tenant per scheduling tick." in
    Arg.(value & opt int 4 & info [ "drain-burst" ] ~docv:"N" ~doc)
  in
  let run socket queue burst events =
    with_events_sink events (fun sink ->
      match
        Hotpath_serve.Serve.Server.create ~events:sink ~queue_capacity:queue
          ~drain_burst:burst ~socket_path:socket ()
      with
      | Error e ->
        Printf.eprintf "serve: %s\n" e;
        exit 1
      | Ok server ->
        let stop _ = Hotpath_serve.Serve.Server.stop server in
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
         with Invalid_argument _ | Sys_error _ -> ());
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
         with Invalid_argument _ | Sys_error _ -> ());
        Printf.printf "listening on %s\n%!" socket;
        Hotpath_serve.Serve.Server.run server;
        let s = Hotpath_serve.Serve.Server.stats server in
        Printf.printf
          "served %d connections: %d completed, %d errored, %d instances \
           (queue high-water %d)\n"
          s.Hotpath_serve.Serve.Server.accepted
          s.Hotpath_serve.Serve.Server.completed
          s.Hotpath_serve.Serve.Server.errored
          s.Hotpath_serve.Serve.Server.instances
          s.Hotpath_serve.Serve.Server.queue_high_water)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the prediction daemon: accept HOTPATH3 trace streams from \
          concurrent clients over a Unix socket (one tenant session per \
          connection, handshake 'HPSERVE1 <tenant> <scheme> <delays>'), \
          replay each through the online session API, and reply with \
          per-delay-lane results.  Stop with SIGINT/SIGTERM.")
    Term.(const run $ socket_arg $ queue_arg $ burst_arg $ events_arg)

let serve_send_cmd =
  let tenant_arg =
    let doc = "Tenant name (one active stream per tenant)." in
    Arg.(value & opt string "cli" & info [ "tenant" ] ~docv:"NAME" ~doc)
  in
  let delays_arg =
    let doc = "Prediction delays (comma-separated)." in
    Arg.(value & opt (list int) [ 50 ] & info [ "delays" ] ~docv:"D1,D2" ~doc)
  in
  let chunk_bytes_arg =
    let doc = "Socket write size in bytes." in
    Arg.(value & opt int 65536 & info [ "chunk-bytes" ] ~docv:"N" ~doc)
  in
  let run socket tenant scheme delays trace chunk_bytes =
    let data = In_channel.with_open_bin trace In_channel.input_all in
    match
      Hotpath_serve.Serve.Client.send ~socket_path:socket ~tenant ~scheme
        ~delays ~chunk_bytes data
    with
    | Error e ->
      Printf.eprintf "serve-send: %s\n" e;
      exit 1
    | Ok lines ->
      let ok = ref false in
      List.iter
        (fun fields ->
          let kind =
            Option.value ~default:"?" (Hotpath_util.Events.kind fields)
          in
          if kind = "serve.ok" then ok := true;
          let render (k, v) =
            Printf.sprintf "%s=%s" k
              (match v with
              | Hotpath_util.Events.Int i -> string_of_int i
              | Hotpath_util.Events.Float f -> Printf.sprintf "%g" f
              | Hotpath_util.Events.Str s -> s
              | Hotpath_util.Events.Bool b -> string_of_bool b)
          in
          Printf.printf "%s %s\n" kind
            (String.concat " "
               (List.map render
                  (List.filter (fun (k, _) -> k <> "ev") fields))))
        lines;
      if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "serve-send"
       ~doc:
         "Stream a recorded HOTPATH3 trace file to a running serve daemon \
          and print the per-lane results.  Exits non-zero unless the \
          server replied serve.ok.")
    Term.(
      const run $ socket_arg $ tenant_arg $ scheme_arg $ delays_arg
      $ trace_arg $ chunk_bytes_arg)

let bench_list_cmd =
  let run () =
    List.iter
      (fun b ->
         Printf.printf "%-10s %s\n" b.Hotpath_workloads.Suite.b_name
           b.Hotpath_workloads.Suite.b_description)
      Hotpath_workloads.Suite.all
  in
  Cmd.v (Cmd.info "bench-list" ~doc:"List the benchmark suite") Term.(const run $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "hotpath" ~version:"1.0.0"
       ~doc:
         "Reproduction of Duesterwald & Bala, Software Profiling for Hot Path \
          Prediction: Less is More (ASPLOS 2000)")
    [
      table1_cmd; table2_cmd; fig2_cmd; fig3_cmd; fig4_cmd; fig5_cmd; ablations_cmd; offline_cmd; phases_cmd;
      sweep_cmd; dynamo_cmd; online_cmd; paths_cmd; dot_cmd; record_cmd; replay_cmd;
      serve_cmd; serve_send_cmd; check_cmd; static_cmd; events_summary_cmd; bench_list_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
