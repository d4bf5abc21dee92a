module Suite = Hotpath_workloads.Suite
module Recorder = Hotpath_trace.Recorder
module Tablefmt = Hotpath_util.Tablefmt
module Stats = Hotpath_util.Stats
module Freq = Hotpath_analysis.Freq
module Kselect = Hotpath_analysis.Kselect

(* Estimated-vs-measured hot-head comparison: how well does the
   Wu–Larus estimate rank the heads a real trace actually visits?  The
   universe is the static [full] head set — every dynamic loop head is
   in it by construction — with estimated flow on one side and the
   trace's backward-arrival counts (zero when never visited) on the
   other. *)

type row = {
  sr_bench : string;
  sr_heads : int;  (** Static full head set size. *)
  sr_observed : int;  (** Heads the trace actually arrived at. *)
  sr_armed : int;  (** Statically-hot heads (0.1% estimated share). *)
  sr_spearman : float;
  sr_top10_pct : float;  (** Top-10 overlap, percent. *)
  sr_top50_pct : float;  (** Top-50 overlap, percent. *)
  sr_degraded : int;  (** Procedures flagged P113-degraded. *)
}

(* Deterministic hot-first order: value descending, block ascending. *)
let rank_heads values =
  let a = Array.of_list values in
  Array.sort (fun (ha, fa) (hb, fb) -> compare (fb, ha) (fa, hb)) a;
  Array.map fst a

let top_overlap_pct ~n est meas =
  let n = min n (Array.length est) in
  if n = 0 then 0.0
  else begin
    let take a =
      let t = Hashtbl.create n in
      Array.iteri (fun i h -> if i < n then Hashtbl.replace t h ()) a;
      t
    in
    let e = take est in
    let inter = ref 0 in
    Array.iteri
      (fun i h -> if i < n && Hashtbl.mem e h then incr inter)
      meas;
    100.0 *. float_of_int !inter /. float_of_int n
  end

let compute_row ?scale (b : Suite.benchmark) =
  let run = Runs.load ?scale b in
  let freq = Freq.estimate run.Runs.recorded.Recorder.program in
  let est = Freq.ranked_heads freq in
  let measured = Recorder.head_arrival_counts run.Runs.recorded in
  let meas_of h =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt measured h))
  in
  (* Correlate over the heads the trace visited: with the full set the
     statistic is dominated by the (many) never-visited heads tying at
     zero.  Top-N overlap below still uses the full set. *)
  let observed = List.filter (fun (h, _) -> meas_of h > 0.0) est in
  let est_v = Array.of_list (List.map snd observed) in
  let meas_v = Array.of_list (List.map (fun (h, _) -> meas_of h) observed) in
  let est_rank = rank_heads est in
  let meas_rank =
    rank_heads (List.map (fun (h, _) -> (h, meas_of h)) est)
  in
  let total_est = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 est in
  let armed =
    List.length
      (List.filter
         (fun (_, f) -> total_est > 0.0 && f >= Suite.hot_threshold *. total_est)
         est)
  in
  {
    sr_bench = b.Suite.b_name;
    sr_heads = List.length est;
    sr_observed = Hashtbl.length measured;
    sr_armed = armed;
    sr_spearman = Stats.spearman est_v meas_v;
    sr_top10_pct = top_overlap_pct ~n:10 est_rank meas_rank;
    sr_top50_pct = top_overlap_pct ~n:50 est_rank meas_rank;
    sr_degraded = List.length (Freq.degraded_procs freq);
  }

let compute ?scale ?(jobs = 1) () =
  let runs = Runs.load_all ?scale ~jobs () in
  List.map (fun (run : Runs.run) -> compute_row ?scale run.Runs.bench) runs

let to_table rows =
  let t =
    Tablefmt.create
      ~columns:
        [
          ("bench", Tablefmt.Left);
          ("heads", Tablefmt.Right);
          ("observed", Tablefmt.Right);
          ("armed", Tablefmt.Right);
          ("spearman", Tablefmt.Right);
          ("top-10", Tablefmt.Right);
          ("top-50", Tablefmt.Right);
          ("degraded", Tablefmt.Right);
        ]
  in
  List.iter
    (fun r ->
       Tablefmt.add_row t
         [
           r.sr_bench;
           Tablefmt.cell_int r.sr_heads;
           Tablefmt.cell_int r.sr_observed;
           Tablefmt.cell_int r.sr_armed;
           Tablefmt.cell_float ~digits:3 r.sr_spearman;
           Tablefmt.cell_pct ~digits:0 r.sr_top10_pct;
           Tablefmt.cell_pct ~digits:0 r.sr_top50_pct;
           Tablefmt.cell_int r.sr_degraded;
         ])
    rows;
  t

let render ?scale ?jobs () =
  let rows = compute ?scale ?jobs () in
  let mean f = Stats.mean (Array.of_list (List.map f rows)) in
  Tablefmt.render (to_table rows)
  ^ Printf.sprintf
      "\nmean rank correlation %.3f, top-10 overlap %.0f%%, top-50 overlap \
       %.0f%% (zero trace observation)\n"
      (mean (fun r -> r.sr_spearman))
      (mean (fun r -> r.sr_top10_pct))
      (mean (fun r -> r.sr_top50_pct))

let render_csv ?scale ?jobs () = Tablefmt.render_csv (to_table (compute ?scale ?jobs ()))

(* Per-benchmark drill-down: the head-level table behind the summary
   row, plus the k-selection the kauto schemes will use. *)
let render_bench ?scale ?(top = 12) (b : Suite.benchmark) =
  let run = Runs.load ?scale b in
  let program = run.Runs.recorded.Recorder.program in
  let freq = Freq.estimate program in
  let est = Freq.ranked_heads freq in
  let measured = Recorder.head_arrival_counts run.Runs.recorded in
  let meas_of h =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt measured h))
  in
  let est_rank = rank_heads est in
  let meas_rank = rank_heads (List.map (fun (h, _) -> (h, meas_of h)) est) in
  let rank_of a h =
    let r = ref 0 in
    Array.iteri (fun i x -> if x = h then r := i + 1) a;
    !r
  in
  let t =
    Tablefmt.create
      ~columns:
        [
          ("head", Tablefmt.Right);
          ("estimated", Tablefmt.Right);
          ("est-rank", Tablefmt.Right);
          ("measured", Tablefmt.Right);
          ("meas-rank", Tablefmt.Right);
          ("kauto", Tablefmt.Right);
        ]
  in
  let ks = Kselect.analyze freq in
  Array.iteri
    (fun i h ->
       if i < top then
         Tablefmt.add_row t
           [
             Tablefmt.cell_int h;
             Tablefmt.cell_float ~digits:1 (Freq.global_freq freq h);
             Tablefmt.cell_int (rank_of est_rank h);
             Tablefmt.cell_int (int_of_float (meas_of h));
             Tablefmt.cell_int (i + 1);
             Tablefmt.cell_int (Kselect.k_for ks h);
           ])
    meas_rank;
  let row = compute_row ?scale b in
  let kdist =
    let counts = Hashtbl.create 4 in
    List.iter
      (fun (c : Kselect.choice) ->
         Hashtbl.replace counts c.Kselect.k
           (1 + Option.value ~default:0 (Hashtbl.find_opt counts c.Kselect.k)))
      (Kselect.choices ks);
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])
  in
  Printf.sprintf "%s: top %d measured heads vs static estimate\n" b.Suite.b_name
    top
  ^ Tablefmt.render t
  ^ Printf.sprintf
      "\nheads %d (observed %d, statically hot %d), rank correlation %.3f, \
       top-10 overlap %.0f%%, top-50 overlap %.0f%%\n"
      row.sr_heads row.sr_observed row.sr_armed row.sr_spearman row.sr_top10_pct
      row.sr_top50_pct
  ^ Printf.sprintf "kauto loop heads: %s%s%s\n"
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "k=%d x%d" k n) kdist))
      (if Freq.recursion_capped freq then "; recursion-capped invocations"
       else "")
      (match Freq.degraded_procs freq with
       | [] -> ""
       | ps -> Printf.sprintf "; degraded procs %d" (List.length ps))
