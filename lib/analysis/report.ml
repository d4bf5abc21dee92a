open Hotpath_cfg
module Tablefmt = Hotpath_util.Tablefmt

let build_table ?cap p =
  let t =
    Tablefmt.create
      ~columns:
        [
          ("proc", Tablefmt.Left);
          ("blocks", Tablefmt.Right);
          ("branches", Tablefmt.Right);
          ("loops", Tablefmt.Right);
          ("max-nest", Tablefmt.Right);
          ("reducible", Tablefmt.Left);
          ("unreachable", Tablefmt.Right);
          ("bl-paths", Tablefmt.Right);
        ]
  in
  Cfg.iter_procs
    (fun pr ->
       let pid = pr.Cfg.pid in
       let g = Procgraph.build p ~proc:pid in
       let dom = Dominators.compute g in
       let loops = Loops.analyze dom in
       let branches =
         Array.fold_left
           (fun acc b ->
              match (Cfg.block p b).Cfg.term with Cfg.Branch _ -> acc + 1 | _ -> acc)
           0 pr.Cfg.blocks
       in
       Tablefmt.add_row t
         [
           pr.Cfg.name;
           Tablefmt.cell_int (Array.length pr.Cfg.blocks);
           Tablefmt.cell_int branches;
           Tablefmt.cell_int (Loops.loop_count loops);
           Tablefmt.cell_int (Loops.max_depth loops);
           (if Loops.reducible loops then "yes" else "NO");
           Tablefmt.cell_int (List.length (Procgraph.unreachable_blocks g));
           Bounds.count_to_string (Bounds.bl_paths ?cap p ~proc:pid);
         ])
    p;
  t

let render ?cap p =
  let r = Bounds.counter_space_report ?cap p in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "program %s\n" p.Cfg.pname);
  Buffer.add_string buf (Tablefmt.render (build_table ?cap p));
  Buffer.add_string buf
    (Printf.sprintf
       "\nstatic counter space: NET heads %d (paper definition %d), B-L paths %s, \
        interproc path bound %s\n"
       r.Bounds.r_full_heads r.Bounds.r_paper_heads
       (Bounds.count_to_string r.Bounds.r_bl_total)
       (Bounds.count_to_string r.Bounds.r_forward_walks));
  (match r.Bounds.r_net_to_bl_pct with
   | Some pct ->
     Buffer.add_string buf
       (Printf.sprintf "NET/B-L counter ratio (static): %s\n" (Tablefmt.cell_pct pct))
   | None ->
     Buffer.add_string buf
       "NET/B-L counter ratio (static): ~0% (path count overflows the cap)\n");
  let freq = Freq.estimate p in
  let heads = Freq.ranked_heads freq in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 heads in
  Buffer.add_string buf
    (Printf.sprintf
       "static frequency estimate: %d heads ranked, total head flow %s%s%s\n"
       (List.length heads)
       (Tablefmt.cell_float ~digits:1 total)
       (match Freq.degraded_procs freq with
        | [] -> ""
        | ps -> Printf.sprintf ", %d degraded procs (P113)" (List.length ps))
       (if Freq.recursion_capped freq then ", recursion-capped invocations"
        else ""));
  let ks = Kselect.analyze freq in
  let kdist = Hashtbl.create 4 in
  List.iter
    (fun (c : Kselect.choice) ->
       Hashtbl.replace kdist c.Kselect.k
         (1 + Option.value ~default:0 (Hashtbl.find_opt kdist c.Kselect.k)))
    (Kselect.choices ks);
  Buffer.add_string buf
    (Printf.sprintf "kauto window selection: %s\n"
       (if Kselect.choices ks = [] then "no loop heads"
        else
          String.concat ", "
            (List.map
               (fun (k, n) -> Printf.sprintf "k=%d x%d" k n)
               (List.sort compare
                  (Hashtbl.fold (fun k n acc -> (k, n) :: acc) kdist [])))));
  Buffer.contents buf

let render_csv ?cap p = Tablefmt.render_csv (build_table ?cap p)
