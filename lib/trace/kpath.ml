(* Sliding-window interner for k-iteration paths.

   A k-iteration path is a window of up to [k] consecutive acyclic path
   instances chained by [Loop_head] arrivals: an [Entry] or
   [Continuation] arrival restarts the chain at the arriving instance,
   and once the chain is [k] deep the window slides (the oldest
   component drops off).  Nodes of the trie are exactly the windows
   materialized so far; node 0 is the root (the empty window).

   Each node carries a suffix link — the node for its window minus the
   oldest component — so advancing a full-depth window is one child
   lookup from the suffix, never a re-walk of the window.  Suffix
   targets are created on demand (recursion bounded by [k]); such nodes
   are windows a real k-iteration profiler materializes while
   navigating, so they count toward the allocated tracking space even
   when never themselves counted. *)

type t = {
  k : int;
  children : (int, int) Hashtbl.t;  (* (node, pid) packed -> node *)
  depth : int Hotpath_util.Vec.t;
  suffix : int Hotpath_util.Vec.t;
}

module Vec = Hotpath_util.Vec

let root = 0

(* Child keys pack (node, pid) into one immediate: node ids and path ids
   are both dense table indices, far below 2^31 in any recordable
   trace. *)
let key node pid = (node lsl 31) lor pid

let create ~k =
  if k < 1 then invalid_arg "Kpath.create: k must be >= 1";
  let depth = Vec.create () and suffix = Vec.create () in
  Vec.push depth 0;
  Vec.push suffix 0;
  { k; children = Hashtbl.create 256; depth; suffix }

let k t = t.k

let num_nodes t = Vec.length t.depth

let depth t node = Vec.get t.depth node

(* [child t base pid]: the node for [base]'s window extended by [pid],
   created (with its suffix chain) on first use. *)
let rec child t base pid =
  match Hashtbl.find_opt t.children (key base pid) with
  | Some n -> n
  | None ->
    let n = Vec.length t.depth in
    Hashtbl.add t.children (key base pid) n;
    Vec.push t.depth (Vec.get t.depth base + 1);
    (* Reserve the slot before recursing: the suffix chain may allocate
       further nodes, but never this window again (its key is bound). *)
    Vec.push t.suffix root;
    if base <> root then Vec.set t.suffix n (child t (Vec.get t.suffix base) pid);
    n

let advance t ~cur ~arrival ~pid =
  match (arrival : Path.head_kind) with
  | Path.Entry | Path.Continuation ->
    (* Chain restart: the window is the arriving instance alone. *)
    child t root pid
  | Path.Loop_head ->
    let base = if Vec.get t.depth cur < t.k then cur else Vec.get t.suffix cur in
    child t base pid

(* Flattened variant for the replay kernels.

   Same automaton, hot-structure layout: the top trie level (children
   of the root — where every chain restart and every suffix chain
   bottoms out) is a dense pid-indexed array, deeper children live in
   an open-addressed int->int table (no boxing, no bucket chains), and
   depth/suffix are plain int arrays.  Node ids are bit-identical to
   the Hashtbl interner on any advance sequence because allocation
   order is preserved exactly: reserve the node and bind its key
   {e before} recursing the suffix chain, as [child] above does. *)
module Flat = struct
  type flat = {
    fk : int;
    mutable level1 : int array;  (* pid -> node, -1 when absent *)
    mutable h_key : int array;  (* open addressing; -1 marks empty *)
    mutable h_val : int array;
    mutable h_mask : int;  (* capacity - 1, capacity a power of two *)
    mutable h_count : int;
    mutable f_depth : int array;
    mutable f_suffix : int array;
    mutable f_nodes : int;
  }

  type t = flat

  let create ~k =
    if k < 1 then invalid_arg "Kpath.Flat.create: k must be >= 1";
    {
      fk = k;
      level1 = Array.make 64 (-1);
      h_key = Array.make 1024 (-1);
      h_val = Array.make 1024 0;
      h_mask = 1023;
      h_count = 0;
      f_depth = Array.make 1024 0;
      f_suffix = Array.make 1024 0;
      f_nodes = 1 (* the root *);
    }

  let k t = t.fk

  let num_nodes t = t.f_nodes

  let depth t node = t.f_depth.(node)

  let suffix t node = t.f_suffix.(node)

  (* Deep keys are always >= 2^31 (base >= 1), so they never collide
     with the -1 empty sentinel.  Fibonacci-style multiplicative hash;
     the high bits carry the mix, so index with them. *)
  let slot key mask = (key * 0x9E3779B97F4A7C1) lsr 30 land mask

  let new_node t ~depth =
    let n = t.f_nodes in
    if n >= Array.length t.f_depth then begin
      let cap = 2 * Array.length t.f_depth in
      let d = Array.make cap 0 and s = Array.make cap 0 in
      Array.blit t.f_depth 0 d 0 n;
      Array.blit t.f_suffix 0 s 0 n;
      t.f_depth <- d;
      t.f_suffix <- s
    end;
    t.f_depth.(n) <- depth;
    t.f_suffix.(n) <- root;
    t.f_nodes <- n + 1;
    n

  let rehash t =
    let cap = 2 * (t.h_mask + 1) in
    let mask = cap - 1 in
    let nk = Array.make cap (-1) and nv = Array.make cap 0 in
    let ok = t.h_key and ov = t.h_val in
    for i = 0 to Array.length ok - 1 do
      let key = Array.unsafe_get ok i in
      if key >= 0 then begin
        let j = ref (slot key mask) in
        while Array.unsafe_get nk !j >= 0 do
          j := (!j + 1) land mask
        done;
        nk.(!j) <- key;
        nv.(!j) <- ov.(i)
      end
    done;
    t.h_key <- nk;
    t.h_val <- nv;
    t.h_mask <- mask

  let ensure_level1 t pid =
    if pid >= Array.length t.level1 then begin
      let cap = ref (2 * Array.length t.level1) in
      while pid >= !cap do
        cap := 2 * !cap
      done;
      let a = Array.make !cap (-1) in
      Array.blit t.level1 0 a 0 (Array.length t.level1);
      t.level1 <- a
    end

  (* Mirrors [child] above, including allocation order. *)
  let rec child t base pid =
    if base = root then begin
      ensure_level1 t pid;
      let n = Array.unsafe_get t.level1 pid in
      if n >= 0 then n
      else begin
        let n = new_node t ~depth:1 in
        t.level1.(pid) <- n;
        (* Depth-1 suffix is the root: nothing to recurse. *)
        n
      end
    end
    else begin
      let key = (base lsl 31) lor pid in
      let mask = t.h_mask in
      let j = ref (slot key mask) in
      let k = ref (Array.unsafe_get t.h_key !j) in
      while !k >= 0 && !k <> key do
        j := (!j + 1) land mask;
        k := Array.unsafe_get t.h_key !j
      done;
      if !k = key then Array.unsafe_get t.h_val !j
      else begin
        let n = new_node t ~depth:(t.f_depth.(base) + 1) in
        t.h_key.(!j) <- key;
        t.h_val.(!j) <- n;
        t.h_count <- t.h_count + 1;
        (* Key bound, node reserved — now the suffix chain may allocate
           (and even rehash) without revisiting this window. *)
        let suffix = child t t.f_suffix.(base) pid in
        t.f_suffix.(n) <- suffix;
        if 2 * t.h_count >= t.h_mask + 1 then rehash t;
        n
      end
    end

  let advance t ~cur ~arrival ~pid =
    match (arrival : Path.head_kind) with
    | Path.Entry | Path.Continuation -> child t root pid
    | Path.Loop_head ->
      let base =
        if Array.unsafe_get t.f_depth cur < t.fk then cur
        else Array.unsafe_get t.f_suffix cur
      in
      child t base pid
end
