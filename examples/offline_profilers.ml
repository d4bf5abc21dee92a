(* A tour of the offline profiling substrates (Sections 1-2 of the paper).

     dune exec examples/offline_profilers.exe

   The same execution of the paper's Figure 1 loop, seen through every
   profiler in the library: Ball-Larus path numbering, bit tracing,
   Young-Smith k-bounded general paths, edge counts, and sampling. *)

open Hotpath

let () =
  let program, behavior = Figure1.build ~config:Figure1.flat () in

  (* Ball-Larus: static numbering first - no execution needed. *)
  let bl = Ball_larus.analyze program ~proc:0 in
  Format.printf "=== Ball-Larus (static) ===@.";
  Format.printf "acyclic paths: %d, instrumented edges (chords): %d of %d@."
    (Ball_larus.num_paths bl) (Ball_larus.num_chords bl) (Ball_larus.num_edges bl);
  Array.iteri
    (fun n blocks ->
       Format.printf "  path %2d: %s@." n
         (String.concat "" (List.map Figure1.label blocks)))
    (Ball_larus.enumerate bl);

  (* One shared execution for the dynamic profilers. *)
  let rng = Prng.create ~seed:515 in
  let vm = Vm.create program behavior ~rng in
  let bl_rt = Ball_larus.Runtime.create program in
  let ys = Young_smith.create ~k:3 in
  let _ =
    Vm.run ~max_steps:60_000 vm ~on_transfer:(fun vm ->
        Ball_larus.Runtime.on_transfer bl_rt vm;
        Young_smith.on_transfer ys vm)
  in
  Format.printf "@.=== Ball-Larus runtime (same run) ===@.";
  List.iteri
    (fun i (n, c) ->
       if i < 5 then
         Format.printf "  #%d: path %s x %d@." (i + 1)
           (String.concat ""
              (List.map Figure1.label (Ball_larus.regenerate bl n)))
           c)
    (Ball_larus.Runtime.counts bl_rt 0);

  Format.printf "@.=== Young-Smith 3-bounded general paths ===@.";
  List.iter
    (fun (w, c) ->
       Format.printf "  %s x %d@." (Young_smith.window_to_string w) c)
    (Young_smith.top ys ~n:5);

  (* Bit tracing, edge profiling and sampling work off a recording. *)
  let recorded =
    Recorder.record ~max_steps:60_000 program behavior
      ~rng:(Prng.create ~seed:515)
  in
  let profile = Bit_tracing.profile recorded in
  Format.printf "@.=== Bit tracing ===@.";
  Format.printf "%d paths, %d shift ops, %d table updates@."
    profile.Bit_tracing.counter_space profile.Bit_tracing.shift_ops
    profile.Bit_tracing.table_updates;
  Array.iteri
    (fun i (p, freq) ->
       if i < 5 then
         Format.printf "  #%d: %-10s x %d@." (i + 1)
           (Signature.to_string p.Path.signature)
           freq)
    profile.Bit_tracing.entries;

  let edges = Edge_profile.collect recorded in
  Format.printf "@.=== Edge profile ===@.";
  List.iteri
    (fun i ((src, dst), c) ->
       if i < 5 then
         Format.printf "  %s->%s x %d@." (Figure1.label src) (Figure1.label dst) c)
    (Edge_profile.edges edges);
  let hot =
    Hot_set.compute
      ~freq:(Recorder.frequencies recorded)
      ~total_flow:(Recorder.num_instances recorded)
      ~threshold:0.001
  in
  let identified, hot_size, flow = Edge_profile.showdown_stats recorded ~hot in
  Format.printf "edge-vs-path showdown: %d of %d hot paths, %.1f%% of hot flow@."
    identified hot_size flow;

  Format.printf "@.=== Sampling (every 100th path) ===@.";
  let acc = Sampling.accuracy recorded ~hot ~period:100 in
  Format.printf "precision %.2f, recall %.2f, %.1f%% hot flow recovered@."
    acc.Sampling.acc_precision acc.Sampling.acc_recall acc.Sampling.acc_flow_pct
