open Hotpath_cfg

let cp_cap = 0.98

(* Sweep budget of the irreducible fallback solver; with branch
   probabilities clamped to <= 0.99 the sweep-to-sweep contraction is
   at worst the largest cycle gain, so this is an explicit
   approximation, flagged as such (P113). *)
let max_sweeps = 200

let sweep_epsilon = 1e-10

type proc_freq = {
  g : Procgraph.t;
  loops : Loops.t;
  bfreq : float array;  (* local index -> executions per invocation *)
  off : int array;  (* edges of local [u]: [off.(u)] .. [off.(u + 1) - 1] *)
  efreq : float array;  (* per edge, aligned with [Procgraph.succ] *)
  cp : float array;  (* capped cyclic probability; 0 for non-heads *)
  is_head : bool array;
  capped : bool array;
  degraded : bool;
}

let local_exn g b = Procgraph.local g b

let block_freq t b = t.bfreq.(local_exn t.g b)

(* Edge id of local [u]'s successor [dst] (a local index); -1 when
   there is no such edge. *)
let edge_id g off u ~dst =
  let su = Procgraph.succ g u in
  let rec find i =
    if i >= Array.length su then -1
    else if su.(i) = dst then off.(u) + i
    else find (i + 1)
  in
  find 0

let edge_freq t ~src ~dst =
  let u = local_exn t.g src in
  let su = Procgraph.succ t.g u in
  let rec find i =
    if i >= Array.length su then
      invalid_arg
        (Printf.sprintf "Freq.edge_freq: %d -> %d is not an edge"
           (Procgraph.global t.g u) dst)
    else if Procgraph.global t.g su.(i) = dst then t.efreq.(t.off.(u) + i)
    else find (i + 1)
  in
  find 0

let cyclic_prob t b =
  let u = local_exn t.g b in
  if t.is_head.(u) then Some t.cp.(u) else None

let capped_heads t =
  let acc = ref [] in
  for u = Array.length t.capped - 1 downto 0 do
    if t.capped.(u) then acc := Procgraph.global t.g u :: !acc
  done;
  !acc

let proc_degraded t = t.degraded

let loops t = t.loops

let analyze_proc g loops heur =
  let n = Procgraph.size g in
  (* Edges numbered in (source, successor index) order, flat. *)
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Array.length (Procgraph.succ g u)
  done;
  let m = off.(n) in
  let prob = Array.make m 0.0 in
  for u = 0 to n - 1 do
    let sp = Heuristics.succ_probs heur (Procgraph.global g u) in
    Array.iteri
      (fun i v -> prob.(off.(u) + i) <- List.assoc (Procgraph.global g v) sp)
      (Procgraph.succ g u)
  done;
  (* Incoming edges per block, predecessors descending: the order every
     inflow sum below adds them in. *)
  let in_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    in_off.(v + 1) <- in_off.(v) + Array.length (Procgraph.pred g v)
  done;
  let in_src = Array.make m 0 and in_edge = Array.make m 0 in
  for v = 0 to n - 1 do
    let pv = Procgraph.pred g v in
    let k = Array.length pv in
    for j = 0 to k - 1 do
      let p = pv.(k - 1 - j) in
      in_src.(in_off.(v) + j) <- p;
      in_edge.(in_off.(v) + j) <- edge_id g off p ~dst:v
    done
  done;
  let back = Array.make m false in
  let is_head = Array.make n false in
  List.iter
    (fun (l : Loops.loop) ->
       is_head.(Procgraph.local g l.Loops.head) <- true;
       List.iter
         (fun (t, h) ->
            back.(edge_id g off (Procgraph.local g t) ~dst:(Procgraph.local g h)) <- true)
         l.Loops.back_edges)
    (Loops.loops loops);
  let bfreq = Array.make n 0.0 in
  let efreq = Array.make m 0.0 in
  let cp = Array.make n 0.0 in
  let capped = Array.make n false in
  let degraded = not (Loops.reducible loops) in
  let set_out u =
    let f = bfreq.(u) in
    for e = off.(u) to off.(u + 1) - 1 do
      efreq.(e) <- prob.(e) *. f
    done
  in
  let entry = Procgraph.entry g in
  if degraded then begin
    (* Irreducible: bounded Gauss–Seidel over the full linear system,
       all edges included.  Approximate by construction; the procedure
       is reported degraded and lint surfaces it as P113. *)
    let reachable = Procgraph.reachable g in
    let sweep () =
      let delta = ref 0.0 in
      for u = 0 to n - 1 do
        if reachable.(u) then begin
          let f = ref (if u = entry then 1.0 else 0.0) in
          for j = in_off.(u) to in_off.(u + 1) - 1 do
            f := !f +. (prob.(in_edge.(j)) *. bfreq.(in_src.(j)))
          done;
          delta := Float.max !delta (Float.abs (!f -. bfreq.(u)));
          bfreq.(u) <- !f
        end
      done;
      !delta
    in
    let rec run s = if s < max_sweeps && sweep () > sweep_epsilon then run (s + 1) in
    run 0;
    for u = 0 to n - 1 do
      set_out u
    done
  end
  else begin
    (* Reverse post-order of the graph minus dominance back edges —
       acyclic for reducible procedures, so a single in-order walk has
       every (non-back) predecessor ready.  [pos] is each block's place
       in it. *)
    let pos = Array.make n (-1) in
    let post = Array.make n 0 and reached = ref 0 in
    let rec dfs u =
      pos.(u) <- 0;
      let su = Procgraph.succ g u in
      for i = 0 to Array.length su - 1 do
        if (not back.(off.(u) + i)) && pos.(su.(i)) < 0 then dfs su.(i)
      done;
      post.(!reached) <- u;
      incr reached
    in
    if n > 0 then dfs entry;
    let rpo = Array.init !reached (fun r -> post.(!reached - 1 - r)) in
    Array.iteri (fun r u -> pos.(u) <- r) rpo;
    (* One pass over [members] (in RPO order): compute their frequencies
       relative to [freq head = head_f], refreshing outgoing edge flows;
       [mark] tells this pass's members from everything else. *)
    let mark = Array.make n 0 in
    let pass = ref 0 in
    let run_pass members ~head ~head_f =
      incr pass;
      let stamp = !pass in
      Array.iter (fun u -> mark.(u) <- stamp) members;
      for r = 0 to Array.length members - 1 do
        let u = members.(r) in
        (if u = head then bfreq.(u) <- head_f
         else begin
           let inflow = ref 0.0 in
           for j = in_off.(u) to in_off.(u + 1) - 1 do
             let e = in_edge.(j) in
             if mark.(in_src.(j)) = stamp && not back.(e) then
               inflow := !inflow +. efreq.(e)
           done;
           bfreq.(u) <-
             (if is_head.(u) then !inflow /. (1.0 -. cp.(u)) else !inflow)
         end);
        set_out u
      done
    in
    (* Innermost-first: each loop pass freezes its head's cyclic
       probability before any enclosing pass reads it. *)
    let by_depth =
      List.sort
        (fun (a : Loops.loop) (b : Loops.loop) ->
           if a.Loops.depth <> b.Loops.depth then Int.compare b.Loops.depth a.Loops.depth
           else Int.compare a.Loops.head b.Loops.head)
        (Loops.loops loops)
    in
    List.iter
      (fun (l : Loops.loop) ->
         let h = Procgraph.local g l.Loops.head in
         let members = Array.of_list l.Loops.blocks in
         Array.iteri (fun i b -> members.(i) <- pos.(Procgraph.local g b)) members;
         Array.sort Int.compare members;
         Array.iteri (fun i r -> members.(i) <- rpo.(r)) members;
         run_pass members ~head:h ~head_f:1.0;
         let raw = ref 0.0 in
         List.iter
           (fun (t, hd) ->
              let tl = Procgraph.local g t in
              raw := !raw +. efreq.(edge_id g off tl ~dst:(Procgraph.local g hd)))
           l.Loops.back_edges;
         capped.(h) <- !raw > cp_cap;
         cp.(h) <- Float.min cp_cap !raw)
      by_depth;
    let entry_f = if is_head.(entry) then 1.0 /. (1.0 -. cp.(entry)) else 1.0 in
    run_pass rpo ~head:entry ~head_f:entry_f
  end;
  { g; loops; bfreq; off; efreq; cp; is_head; capped; degraded }

(* ------------------------------------------------------------------ *)

type t = {
  prog : Cfg.program;
  pfs : proc_freq array;
  inv : float array;
  recursion_capped : bool;
  heads : (Cfg.block_id * float) list;
}

let program t = t.prog

let of_proc t pid =
  if pid < 0 || pid >= Array.length t.pfs then
    invalid_arg (Printf.sprintf "Freq.of_proc: no procedure %d" pid);
  t.pfs.(pid)

let invocation_freq t pid =
  if pid < 0 || pid >= Array.length t.inv then
    invalid_arg (Printf.sprintf "Freq.invocation_freq: no procedure %d" pid);
  t.inv.(pid)

let global_freq t b =
  let pid = (Cfg.block t.prog b).Cfg.proc in
  t.inv.(pid) *. block_freq t.pfs.(pid) b

let degraded_procs t =
  let acc = ref [] in
  for pid = Array.length t.pfs - 1 downto 0 do
    if t.pfs.(pid).degraded then acc := pid :: !acc
  done;
  !acc

let recursion_capped t = t.recursion_capped

let ranked_heads t = t.heads

(* Invocation frequencies over the call graph: closed form in
   topological order when acyclic; otherwise bounded iteration with an
   explicit cap — gain-above-one recursion diverges in reality too. *)
let inv_cap = 1e15

let inv_sweeps = 32

let solve_invocations prog pfs =
  let np = Cfg.num_procs prog in
  let out = Array.make np [] in
  List.iter
    (fun (site, callee, _) ->
       let caller = (Cfg.block prog site).Cfg.proc in
       let w = block_freq pfs.(caller) site in
       out.(caller) <- (callee, w) :: out.(caller))
    (Cfg.call_sites prog);
  let base = Array.make np 0.0 in
  base.(prog.Cfg.main) <- 1.0;
  let indeg = Array.make np 0 in
  Array.iter (List.iter (fun (q, _) -> indeg.(q) <- indeg.(q) + 1)) out;
  let queue = Queue.create () in
  Array.iteri (fun pid d -> if d = 0 then Queue.add pid queue) indeg;
  let topo = ref [] and visited = ref 0 in
  while not (Queue.is_empty queue) do
    let pid = Queue.pop queue in
    incr visited;
    topo := pid :: !topo;
    List.iter
      (fun (q, _) ->
         indeg.(q) <- indeg.(q) - 1;
         if indeg.(q) = 0 then Queue.add q queue)
      out.(pid)
  done;
  if !visited = np then begin
    let inv = Array.copy base in
    List.iter
      (fun pid ->
         List.iter
           (fun (q, w) -> inv.(q) <- inv.(q) +. (inv.(pid) *. w))
           out.(pid))
      (List.rev !topo);
    (inv, false)
  end
  else begin
    let inv = Array.copy base in
    for _ = 1 to inv_sweeps do
      let acc = Array.copy base in
      Array.iteri
        (fun pid edges ->
           List.iter
             (fun (q, w) ->
                acc.(q) <- Float.min inv_cap (acc.(q) +. (inv.(pid) *. w)))
             edges)
        out;
      Array.blit acc 0 inv 0 np
    done;
    (inv, true)
  end

let estimate prog =
  let pfs =
    Array.init (Cfg.num_procs prog) (fun pid ->
        let g = Procgraph.build prog ~proc:pid in
        let loops = Loops.analyze (Dominators.compute g) in
        analyze_proc g loops (Heuristics.analyze g loops))
  in
  let inv, recursion_capped = solve_invocations prog pfs in
  let t0 = { prog; pfs; inv; recursion_capped; heads = [] } in
  let heads =
    Bounds.full_heads (Bounds.static_heads prog)
    |> List.map (fun h -> (h, global_freq t0 h))
    |> Array.of_list
  in
  Array.stable_sort
    (fun (ha, fa) (hb, fb) ->
       match Float.compare fb fa with 0 -> Int.compare ha hb | c -> c)
    heads;
  let heads = Array.to_list heads in
  { t0 with heads }
