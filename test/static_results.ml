(* The Wu-Larus estimate and the k selection it drives, pinned bit for
   bit over the nine suite programs: every ranked head with its global
   frequency as [%h] (equal text means equal bits), each procedure's
   capped heads, the degraded procedures, the recursion flag, and every
   Kselect choice.  The output is diffed against
   fixtures/golden/static_results.expected, so a change to the
   estimate's arithmetic or to its float summation order shows up as a
   changed bit. *)

module Cfg = Hotpath_cfg.Cfg
module Suite = Hotpath_workloads.Suite
module Freq = Hotpath_analysis.Freq
module Kselect = Hotpath_analysis.Kselect
module Bounds = Hotpath_analysis.Bounds

let ints l = String.concat "," (List.map string_of_int l)

let () =
  List.iter
    (fun (b : Suite.benchmark) ->
       let prog = Suite.program b in
       let freq = Freq.estimate prog in
       Printf.printf "== %s procs=%d blocks=%d\n" b.Suite.b_name
         (Cfg.num_procs prog) (Cfg.num_blocks prog);
       Printf.printf "degraded=[%s] recursion_capped=%b\n"
         (ints (Freq.degraded_procs freq))
         (Freq.recursion_capped freq);
       for pid = 0 to Cfg.num_procs prog - 1 do
         match Freq.capped_heads (Freq.of_proc freq pid) with
         | [] -> ()
         | hs -> Printf.printf "capped proc=%d [%s]\n" pid (ints hs)
       done;
       List.iter
         (fun (h, f) -> Printf.printf "head %d %h\n" h f)
         (Freq.ranked_heads freq);
       List.iter
         (fun (c : Kselect.choice) ->
            Printf.printf "choice %d k=%d iterations=%h body_paths=%s\n"
              c.Kselect.head c.Kselect.k c.Kselect.iterations
              (Bounds.count_to_string c.Kselect.body_paths))
         (Kselect.choices (Kselect.analyze freq)))
    Suite.all
