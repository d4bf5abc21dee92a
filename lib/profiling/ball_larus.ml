module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Vec = Hotpath_util.Vec

type node = Block of Cfg.block_id | Exit

(* Internal node encoding adds a virtual entry so that a loop head at the
   procedure entry block still gets a well-formed pseudo edge. *)
type inode = N_entry | N_block of Cfg.block_id | N_exit

type edge_kind = Real | To_exit | Pseudo_entry | Pseudo_exit

type edge = {
  e_src : node;
  e_dst : node;
  e_kind : edge_kind;
  e_tag : int;
  e_val : int;
  e_tree : bool;
  e_inc : int;
}

(* Mutable edge under construction. *)
type medge = {
  m_src : inode;
  m_dst : inode;
  m_kind : edge_kind;
  m_tag : int;
  mutable m_val : int;
  mutable m_tree : bool;
  mutable m_inc : int;
}

type t = {
  program : Cfg.program;
  proc : Cfg.proc_id;
  medges : medge array;  (* in construction order *)
  n_paths : int;
}

let overflow_limit = 1 lsl 50

let node_of_inode entry_block = function
  | N_entry -> Block entry_block  (* exposed as the entry block *)
  | N_block b -> Block b
  | N_exit -> Exit

(* Dense index for union-find / potentials: entry = 0, block b = 1 + local
   index, exit = last. *)
let make_indexer (procedure : Cfg.proc) =
  let local = Hashtbl.create 16 in
  Array.iteri (fun i b -> Hashtbl.add local b (i + 1)) procedure.Cfg.blocks;
  let n = Array.length procedure.Cfg.blocks + 2 in
  let index = function
    | N_entry -> 0
    | N_block b -> Hashtbl.find local b
    | N_exit -> n - 1
  in
  (index, n)

let build_edges program proc =
  let procedure = Cfg.proc program proc in
  let edges = Vec.create () in
  let pseudo_entry_heads = Hashtbl.create 8 in
  let pseudo_exit_tails = Hashtbl.create 8 in
  let add ?(tag = 0) src dst kind =
    Vec.push edges { m_src = src; m_dst = dst; m_kind = kind; m_tag = tag;
                     m_val = 0; m_tree = false; m_inc = 0 }
  in
  let add_pseudo_entry h =
    if not (Hashtbl.mem pseudo_entry_heads h) then begin
      Hashtbl.add pseudo_entry_heads h ();
      add N_entry (N_block h) Pseudo_entry
    end
  in
  let add_pseudo_exit v =
    if not (Hashtbl.mem pseudo_exit_tails v) then begin
      Hashtbl.add pseudo_exit_tails v ();
      add (N_block v) N_exit Pseudo_exit
    end
  in
  (* Every path that starts at the procedure entry goes through this edge. *)
  add_pseudo_entry procedure.Cfg.entry;
  let intra ?(tag = 0) src dst =
    if Cfg.is_backward program ~src ~dst then begin
      add_pseudo_exit src;
      add_pseudo_entry dst
    end
    else add ~tag (N_block src) (N_block dst) Real
  in
  Array.iter
    (fun b ->
       match (Cfg.block program b).Cfg.term with
       | Cfg.Branch { taken; fallthrough } ->
         intra ~tag:1 b taken;
         intra ~tag:0 b fallthrough
       | Cfg.Jump dst -> intra b dst
       | Cfg.Indirect targets ->
         let seen = Hashtbl.create 4 in
         Array.iter
           (fun dst ->
              if not (Hashtbl.mem seen dst) then begin
                Hashtbl.add seen dst ();
                intra b dst
              end)
           targets
       | Cfg.Call { return_to; _ } -> intra b return_to
       | Cfg.Return | Cfg.Exit -> add (N_block b) N_exit To_exit)
    procedure.Cfg.blocks;
  Vec.to_array edges

let analyze program ~proc =
  let procedure = Cfg.proc program proc in
  let medges = build_edges program proc in
  let index, n_nodes = make_indexer procedure in
  (* Group out-edges per node, preserving construction order. *)
  let out : medge list array = Array.make n_nodes [] in
  Array.iter (fun e -> out.(index e.m_src) <- e :: out.(index e.m_src)) medges;
  Array.iteri (fun i l -> out.(i) <- List.rev l) out;
  (* NumPaths in reverse topological order: exit, blocks by descending
     address, entry.  Forward edges strictly increase the address, so this
     order is topological. *)
  let np = Array.make n_nodes 0 in
  np.(index N_exit) <- 1;
  let visit node =
    let i = index node in
    let total = ref 0 in
    List.iter
      (fun e ->
         e.m_val <- !total;
         total := !total + np.(index e.m_dst);
         if !total > overflow_limit then
           invalid_arg
             (Printf.sprintf "Ball_larus.analyze: path count overflow in proc %d" proc))
      out.(i);
    np.(i) <- !total
  in
  let blocks_desc = Array.copy procedure.Cfg.blocks in
  Array.sort (fun a b -> Int.compare b a) blocks_desc;
  Array.iter (fun b -> visit (N_block b)) blocks_desc;
  visit N_entry;
  (* Spanning tree with the zero-valued EXIT->ENTRY edge forced in, then
     potentials phi from ENTRY; chord increments follow. *)
  let parent = Array.init n_nodes Fun.id in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri = rj then false
    else begin
      parent.(ri) <- rj;
      true
    end
  in
  ignore (union (index N_exit) (index N_entry));
  Array.iter
    (fun e ->
       if union (index e.m_src) (index e.m_dst) then e.m_tree <- true)
    medges;
  (* Potentials over tree edges (plus the forced EXIT->ENTRY edge, val 0,
     which makes phi(EXIT) = phi(ENTRY) = 0). *)
  let adjacency = Array.make n_nodes [] in
  let add_adj i j delta =
    adjacency.(i) <- (j, delta) :: adjacency.(i);
    adjacency.(j) <- (i, -delta) :: adjacency.(j)
  in
  Array.iter
    (fun e -> if e.m_tree then add_adj (index e.m_src) (index e.m_dst) e.m_val)
    medges;
  add_adj (index N_exit) (index N_entry) 0;
  let phi = Array.make n_nodes 0 in
  let visited = Array.make n_nodes false in
  let rec dfs i =
    visited.(i) <- true;
    List.iter
      (fun (j, delta) ->
         if not visited.(j) then begin
           phi.(j) <- phi.(i) + delta;
           dfs j
         end)
      adjacency.(i)
  in
  dfs (index N_entry);
  Array.iter
    (fun e ->
       if not e.m_tree then
         e.m_inc <- e.m_val + phi.(index e.m_src) - phi.(index e.m_dst))
    medges;
  { program; proc; medges; n_paths = np.(index N_entry) }

let num_paths t = t.n_paths

let entry_block t = (Cfg.proc t.program t.proc).Cfg.entry

let freeze_edge t e =
  let conv = node_of_inode (entry_block t) in
  {
    e_src = conv e.m_src;
    e_dst = conv e.m_dst;
    e_kind = e.m_kind;
    e_tag = e.m_tag;
    e_val = e.m_val;
    e_tree = e.m_tree;
    e_inc = e.m_inc;
  }

let edges t = Array.to_list (Array.map (freeze_edge t) t.medges)

let num_edges t = Array.length t.medges

let num_chords t =
  Array.fold_left (fun acc e -> if e.m_tree then acc else acc + 1) 0 t.medges

let out_edges t node =
  List.filter (fun e -> e.m_src = node) (Array.to_list t.medges)

let path_number t blocks =
  match blocks with
  | [] -> invalid_arg "Ball_larus.path_number: empty path"
  | first :: _ ->
    let start =
      match
        List.find_opt
          (fun e -> e.m_kind = Pseudo_entry && e.m_dst = N_block first)
          (out_edges t N_entry)
      with
      | Some e -> e
      | None ->
        invalid_arg
          (Printf.sprintf
             "Ball_larus.path_number: block %d is not a path start" first)
    in
    let rec walk acc src rest =
      match rest with
      | [] ->
        (* Terminal edge to EXIT: prefer the real return edge. *)
        let exits = out_edges t (N_block src) in
        (match
           List.find_opt (fun e -> e.m_kind = To_exit && e.m_dst = N_exit) exits
         with
         | Some e -> acc + e.m_val
         | None ->
           (match
              List.find_opt
                (fun e -> e.m_kind = Pseudo_exit && e.m_dst = N_exit)
                exits
            with
            | Some e -> acc + e.m_val
            | None ->
              invalid_arg
                (Printf.sprintf "Ball_larus.path_number: block %d cannot end a path"
                   src)))
      | next :: rest' ->
        (match
           (* Parallel branch edges (taken and fallthrough to the same
              block): the fallthrough (lowest tag) numbering is used. *)
           List.sort
             (fun a b -> Int.compare a.m_tag b.m_tag)
             (List.filter
                (fun e -> e.m_kind = Real && e.m_dst = N_block next)
                (out_edges t (N_block src)))
         with
         | e :: _ -> walk (acc + e.m_val) next rest'
         | [] ->
           invalid_arg
             (Printf.sprintf "Ball_larus.path_number: no edge %d -> %d" src next))
    in
    (match blocks with
     | first :: rest -> walk start.m_val first rest
     | [] -> assert false)

let regenerate t n =
  if n < 0 || n >= t.n_paths then
    invalid_arg (Printf.sprintf "Ball_larus.regenerate: %d outside [0,%d)" n t.n_paths);
  (* NumPaths per node, recomputed from edge vals: the out-edge with the
     largest val <= remaining is the one the path takes. *)
  let rec walk acc node remaining =
    if node = N_exit then List.rev acc
    else begin
      let candidates =
        List.filter (fun e -> e.m_val <= remaining) (out_edges t node)
      in
      let best =
        List.fold_left
          (fun best e ->
             match best with
             | None -> Some e
             | Some b -> if e.m_val > b.m_val then Some e else best)
          None candidates
      in
      match best with
      | None -> invalid_arg "Ball_larus.regenerate: stuck (corrupt numbering)"
      | Some e ->
        let acc =
          match e.m_dst with N_block b -> b :: acc | N_exit | N_entry -> acc
        in
        walk acc e.m_dst (remaining - e.m_val)
    end
  in
  walk [] N_entry n

let enumerate ?(limit = 65536) t =
  if t.n_paths > limit then
    invalid_arg
      (Printf.sprintf "Ball_larus.enumerate: %d paths exceeds limit %d" t.n_paths
         limit);
  Array.init t.n_paths (regenerate t)

(* k-iteration path numbering (D'Elia & Demetrescu): chains of up to k
   acyclic components, components i < d ending at a back-edge source
   through its pseudo exit edge and component i+1 starting at that back
   edge's target.  The count space for d = 1 is exactly [num_paths]
   (every acyclic path is a 1-chain), and each extra level multiplies by
   the loop structure, so overflow arrives much sooner than at k = 1 —
   which is why the arithmetic below raises at [overflow_limit] exactly
   like [analyze], with [Bounds.bl_kpaths] as its saturating mirror
   (the two must flag the identical procedures; property-tested). *)
let num_kpaths program ~proc ~k =
  if k < 1 then invalid_arg "Ball_larus.num_kpaths: k must be >= 1";
  let overflow () =
    invalid_arg
      (Printf.sprintf "Ball_larus.num_kpaths: path count overflow in proc %d"
         proc)
  in
  let add a b =
    let s = a + b in
    if s > overflow_limit then overflow ();
    s
  in
  let mul a b =
    if a = 0 || b = 0 then 0
    else begin
      if a > overflow_limit / b then overflow ();
      a * b
    end
  in
  let procedure = Cfg.proc program proc in
  let blocks = procedure.Cfg.blocks in
  let pentry = Hashtbl.create 8 and pexit = Hashtbl.create 8 in
  Hashtbl.replace pentry procedure.Cfg.entry ();
  let forward_targets = Hashtbl.create 16 in
  let back_pairs = Hashtbl.create 8 in
  let intra src dst =
    if Cfg.is_backward program ~src ~dst then begin
      Hashtbl.replace pexit src ();
      Hashtbl.replace pentry dst ();
      Hashtbl.replace back_pairs (src, dst) ()
    end
    else begin
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt forward_targets src)
      in
      Hashtbl.replace forward_targets src (dst :: prev)
    end
  in
  Array.iter
    (fun b ->
       match (Cfg.block program b).Cfg.term with
       | Cfg.Branch { taken; fallthrough } ->
         intra b taken;
         intra b fallthrough
       | Cfg.Jump dst -> intra b dst
       | Cfg.Indirect targets ->
         let seen = Hashtbl.create 4 in
         Array.iter
           (fun dst ->
              if not (Hashtbl.mem seen dst) then begin
                Hashtbl.add seen dst ();
                intra b dst
              end)
           targets
       | Cfg.Call { return_to; _ } -> intra b return_to
       | Cfg.Return | Cfg.Exit -> ())
    blocks;
  let blocks_desc = Array.copy blocks in
  Array.sort (fun a b -> Int.compare b a) blocks_desc;
  let fwd b = Option.value ~default:[] (Hashtbl.find_opt forward_targets b) in
  (* np(b): acyclic paths from b to any end (the NumPaths pass). *)
  let np = Hashtbl.create 16 in
  Array.iter
    (fun b ->
       let total = ref 0 in
       if Hashtbl.mem pexit b then total := add !total 1;
       (match (Cfg.block program b).Cfg.term with
        | Cfg.Return | Cfg.Exit -> total := add !total 1
        | _ -> ());
       List.iter (fun dst -> total := add !total (Hashtbl.find np dst)) (fwd b);
       Hashtbl.replace np b !total)
    blocks_desc;
  (* ws s b: acyclic paths from b ending exactly at back-edge source s
     (through s's pseudo exit edge). *)
  let sources =
    Hashtbl.fold (fun s () acc -> s :: acc) pexit [] |> List.sort Int.compare
  in
  let ws = Hashtbl.create 8 in
  List.iter
    (fun s ->
       let w = Hashtbl.create 16 in
       Array.iter
         (fun b ->
            let total = ref (if b = s then 1 else 0) in
            List.iter
              (fun dst -> total := add !total (Hashtbl.find w dst))
              (fwd b);
            Hashtbl.replace w b !total)
         blocks_desc;
       Hashtbl.replace ws s w)
    sources;
  let heads =
    Hashtbl.fold (fun h () acc -> h :: acc) pentry [] |> List.sort Int.compare
  in
  let pairs =
    Hashtbl.fold (fun p () acc -> p :: acc) back_pairs [] |> List.sort compare
  in
  (* C_d(h): chains of exactly d components starting at head h. *)
  let c = Hashtbl.create 8 in
  List.iter (fun h -> Hashtbl.replace c h (Hashtbl.find np h)) heads;
  let total = ref 0 in
  List.iter (fun h -> total := add !total (Hashtbl.find c h)) heads;
  for _d = 2 to k do
    let c' = Hashtbl.create 8 in
    List.iter
      (fun h ->
         let sum = ref 0 in
         List.iter
           (fun (s, h2) ->
              let reach = Hashtbl.find (Hashtbl.find ws s) h in
              sum := add !sum (mul reach (Hashtbl.find c h2)))
           pairs;
         Hashtbl.replace c' h !sum)
      heads;
    List.iter
      (fun h -> Hashtbl.replace c h (Hashtbl.find c' h))
      heads;
    List.iter (fun h -> total := add !total (Hashtbl.find c h)) heads
  done;
  !total

module Runtime = struct
  type analysis = t

  type frame = {
    f_proc : Cfg.proc_id;
    mutable f_r : int;
    f_caller_src : Cfg.block_id option;  (* call site, for the return edge *)
  }

  type rt = {
    rt_program : Cfg.program;
    rt_analyses : analysis array;
    (* Per proc: (src, dst, tag) -> (inc, is_chord) for real/to-exit edges. *)
    rt_real : (int * int * int, int * bool) Hashtbl.t array;
    rt_pseudo_entry : (int, int * bool) Hashtbl.t array;  (* head -> inc *)
    rt_pseudo_exit : (int, int * bool) Hashtbl.t array;  (* tail -> inc *)
    rt_counts : (int, int) Hashtbl.t array;
    rt_stack : frame Vec.t;
    mutable rt_ops : int;
    mutable rt_completed : int;
  }

  type t = rt

  let exit_key = -1

  let create program =
    let nprocs = Array.length program.Cfg.procs in
    let analyses = Array.init nprocs (fun proc -> analyze program ~proc) in
    let real = Array.init nprocs (fun _ -> Hashtbl.create 64)
    and pentry = Array.init nprocs (fun _ -> Hashtbl.create 8)
    and pexit = Array.init nprocs (fun _ -> Hashtbl.create 8) in
    Array.iteri
      (fun proc a ->
         Array.iter
           (fun e ->
              let chord = not e.m_tree in
              match e.m_kind, e.m_src, e.m_dst with
              | Pseudo_entry, N_entry, N_block h ->
                Hashtbl.replace pentry.(proc) h (e.m_inc, chord)
              | Pseudo_exit, N_block v, N_exit ->
                Hashtbl.replace pexit.(proc) v (e.m_inc, chord)
              | (Real | To_exit), N_block s, N_block d ->
                Hashtbl.replace real.(proc) (s, d, e.m_tag) (e.m_inc, chord)
              | To_exit, N_block s, N_exit ->
                Hashtbl.replace real.(proc) (s, exit_key, e.m_tag) (e.m_inc, chord)
              | _ -> assert false)
           a.medges)
      analyses;
    let rt =
      {
        rt_program = program;
        rt_analyses = analyses;
        rt_real = real;
        rt_pseudo_entry = pentry;
        rt_pseudo_exit = pexit;
        rt_counts = Array.init nprocs (fun _ -> Hashtbl.create 64);
        rt_stack = Vec.create ();
        rt_ops = 0;
        rt_completed = 0;
      }
    in
    rt

  let analysis rt proc = rt.rt_analyses.(proc)

  let charge rt (inc, chord) =
    if chord then rt.rt_ops <- rt.rt_ops + 1;
    inc

  let start_frame rt proc ~caller_src =
    let entry = (Cfg.proc rt.rt_program proc).Cfg.entry in
    let inc = charge rt (Hashtbl.find rt.rt_pseudo_entry.(proc) entry) in
    Vec.push rt.rt_stack { f_proc = proc; f_r = inc; f_caller_src = caller_src }

  let count rt proc r =
    let tbl = rt.rt_counts.(proc) in
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl r) in
    Hashtbl.replace tbl r (prev + 1);
    rt.rt_completed <- rt.rt_completed + 1

  let top rt =
    if Vec.is_empty rt.rt_stack then None else Some (Vec.last rt.rt_stack)

  let intra_edge rt frame src dst ~tag =
    let proc = frame.f_proc in
    if Cfg.is_backward rt.rt_program ~src ~dst then begin
      (* Back edge: finish the current acyclic path through the pseudo exit
         edge and restart through the pseudo entry edge. *)
      let exit_inc = charge rt (Hashtbl.find rt.rt_pseudo_exit.(proc) src) in
      count rt proc (frame.f_r + exit_inc);
      let entry_inc = charge rt (Hashtbl.find rt.rt_pseudo_entry.(proc) dst) in
      frame.f_r <- entry_inc
    end
    else begin
      let inc = charge rt (Hashtbl.find rt.rt_real.(proc) (src, dst, tag)) in
      frame.f_r <- frame.f_r + inc
    end

  let on_transfer rt vm =
    (* Lazily start the main frame on the first transfer. *)
    if Vec.is_empty rt.rt_stack then
      start_frame rt rt.rt_program.Cfg.main ~caller_src:None;
    match top rt with
    | None -> ()
    | Some frame -> begin
        let c = Vm.cursor vm in
        let src = c.Vm.src and dst = c.Vm.dst in
        match c.Vm.kind with
        | Vm.T_branch -> intra_edge rt frame src dst ~tag:(Bool.to_int c.Vm.taken)
        | Vm.T_jump | Vm.T_indirect -> intra_edge rt frame src dst ~tag:0
        | Vm.T_call ->
          let callee = (Cfg.block rt.rt_program dst).Cfg.proc in
          start_frame rt callee ~caller_src:(Some src)
        | Vm.T_return ->
          (* End the callee's path at its return edge, pop, then traverse
             the caller's call-site -> return-to edge. *)
          let inc =
            charge rt (Hashtbl.find rt.rt_real.(frame.f_proc) (src, exit_key, 0))
          in
          count rt frame.f_proc (frame.f_r + inc);
          let finished = Vec.pop rt.rt_stack in
          (match top rt, finished.f_caller_src with
           | Some caller, Some call_src -> intra_edge rt caller call_src dst ~tag:0
           | _ -> ())
        | Vm.T_exit ->
          let inc =
            charge rt (Hashtbl.find rt.rt_real.(frame.f_proc) (src, exit_key, 0))
          in
          count rt frame.f_proc (frame.f_r + inc);
          ignore (Vec.pop rt.rt_stack)
      end

  let counts rt proc =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) rt.rt_counts.(proc) []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

  let total_counted rt = rt.rt_completed

  let instrumented_ops rt = rt.rt_ops

  let counter_space rt =
    Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 rt.rt_counts
end
