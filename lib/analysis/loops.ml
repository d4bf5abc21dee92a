open Hotpath_cfg

type loop = {
  head : Cfg.block_id;
  back_edges : (Cfg.block_id * Cfg.block_id) list;
  blocks : Cfg.block_id list;
  depth : int;
  parent : Cfg.block_id option;
}

type t = {
  graph : Procgraph.t;
  loops : loop list;
  depth : int array;  (* per local index *)
  irreducible : (Cfg.block_id * Cfg.block_id) list;
}

let analyze dom =
  let g = Dominators.graph dom in
  let n = Procgraph.size g in
  let reach = Procgraph.reachable g in
  (* A dominance back edge [u -> v]: [v] dominates [u] (both reachable,
     which [dominates] implies). *)
  let is_back u v =
    Dominators.dominates dom (Procgraph.global g v) (Procgraph.global g u)
  in
  (* Tails per head, ascending by tail. *)
  let tails = Array.make n [] in
  for u = n - 1 downto 0 do
    let su = Procgraph.succ g u in
    for i = 0 to Array.length su - 1 do
      let v = su.(i) in
      if is_back u v then tails.(v) <- u :: tails.(v)
    done
  done;
  (* Natural-loop bodies: backward reachability from the tails, stopping
     at the head.  [stamp] marks the current body; the walk gathers its
     members into [buf] and counts each block's nesting depth. *)
  let depth = Array.make n 0 in
  let stamp = Array.make n (-1) in
  let buf = Array.make n 0 and len = ref 0 in
  let rec visit head u =
    if reach.(u) && stamp.(u) <> head then begin
      stamp.(u) <- head;
      depth.(u) <- depth.(u) + 1;
      buf.(!len) <- u;
      incr len;
      let pu = Procgraph.pred g u in
      for i = 0 to Array.length pu - 1 do
        visit head pu.(i)
      done
    end
  in
  let bodies = ref [] in
  for head = n - 1 downto 0 do
    if tails.(head) <> [] then begin
      stamp.(head) <- head;
      depth.(head) <- depth.(head) + 1;
      buf.(0) <- head;
      len := 1;
      List.iter (visit head) tails.(head);
      let members = Array.sub buf 0 !len in
      Array.sort Int.compare members;
      bodies := (head, members) :: !bodies
    end
  done;
  (* Natural loops with distinct heads are nested or disjoint, so the
     loops holding a head nest with strictly increasing depth: its
     parent is the deepest one apart from its own. *)
  let parent = Array.make n (-1) in
  List.iter
    (fun (head, members) ->
       Array.iter
         (fun u ->
            if u <> head && tails.(u) <> []
               && (parent.(u) < 0 || depth.(head) > depth.(parent.(u)))
            then parent.(u) <- head)
         members)
    !bodies;
  let global = Procgraph.global g in
  let loops =
    Array.of_list !bodies
    |> Array.map (fun (head, members) ->
         {
           head = global head;
           back_edges = List.sort compare (List.map (fun u -> (global u, global head)) tails.(head));
           blocks = Array.to_list (Array.map global members);
           depth = depth.(head);
           parent = (if parent.(head) < 0 then None else Some (global parent.(head)));
         })
  in
  Array.stable_sort (fun a b -> Int.compare a.head b.head) loops;
  (* Reducibility: remove the dominance back edges and look for a cycle
     in what remains of the reachable subgraph. *)
  let color = Array.make n 0 in
  let witnesses = ref [] in
  let rec dfs u =
    color.(u) <- 1;
    let su = Procgraph.succ g u in
    for i = 0 to Array.length su - 1 do
      let v = su.(i) in
      if not (is_back u v) then
        if color.(v) = 0 then dfs v
        else if color.(v) = 1 then
          witnesses := (global u, global v) :: !witnesses
    done;
    color.(u) <- 2
  in
  if n > 0 then dfs 0;
  { graph = g; loops = Array.to_list loops; depth; irreducible = List.rev !witnesses }

let loops t = t.loops
let loop_count t = List.length t.loops
let depth_of t b = t.depth.(Procgraph.local t.graph b)
let max_depth t = Array.fold_left max 0 t.depth
let reducible t = t.irreducible = []
let irreducible_edges t = t.irreducible
