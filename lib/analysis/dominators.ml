type t = {
  graph : Procgraph.t;
  idom : int array;  (* local -> local; entry maps to itself; -1 unreachable *)
  pre : int array;  (* dominator-tree preorder number; -1 unreachable *)
  size : int array;  (* dominator-subtree size *)
}

let compute g =
  let n = Procgraph.size g in
  let visited = Array.make n false in
  let postnum = Array.make n (-1) in
  let rpo = Array.make n 0 in
  let counter = ref 0 in
  let rec dfs i =
    visited.(i) <- true;
    Array.iter (fun j -> if not visited.(j) then dfs j) (Procgraph.succ g i);
    postnum.(i) <- !counter;
    incr counter
  in
  if n > 0 then dfs 0;
  let reached = !counter in
  for i = 0 to n - 1 do
    if postnum.(i) >= 0 then rpo.(reached - 1 - postnum.(i)) <- i
  done;
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while postnum.(!f1) < postnum.(!f2) do
        f1 := idom.(!f1)
      done;
      while postnum.(!f2) < postnum.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for r = 1 to reached - 1 do
      let b = rpo.(r) in
      let preds = Procgraph.pred g b in
      let new_idom = ref (-1) in
      for k = 0 to Array.length preds - 1 do
        let p = preds.(k) in
        if idom.(p) <> -1 then
          if !new_idom = -1 then new_idom := p
          else new_idom := intersect p !new_idom
      done;
      if !new_idom <> -1 && idom.(b) <> !new_idom then begin
        idom.(b) <- !new_idom;
        changed := true
      end
    done
  done;
  (* Dominator-tree intervals: an idom precedes its children in reverse
     post-order, so one backward sweep sums subtree sizes and one
     forward sweep hands each child the next free preorder slot of its
     parent.  [a] dominates [b] iff [pre b] falls in [a]'s interval. *)
  let size = Array.make n 1 in
  for r = reached - 1 downto 1 do
    let b = rpo.(r) in
    size.(idom.(b)) <- size.(idom.(b)) + size.(b)
  done;
  let pre = Array.make n (-1) in
  let next = Array.make n 0 in
  if reached > 0 then begin
    pre.(0) <- 0;
    next.(0) <- 1
  end;
  for r = 1 to reached - 1 do
    let b = rpo.(r) in
    let d = idom.(b) in
    pre.(b) <- next.(d);
    next.(d) <- next.(d) + size.(b);
    next.(b) <- pre.(b) + 1
  done;
  { graph = g; idom; pre; size }

let graph t = t.graph

let idom_local t i = t.idom.(i)

let idom t g =
  let i = Procgraph.local t.graph g in
  if t.idom.(i) = -1 || i = 0 then None else Some (Procgraph.global t.graph t.idom.(i))

let dominates t ga gb =
  let a = Procgraph.local t.graph ga and b = Procgraph.local t.graph gb in
  t.pre.(a) >= 0 && t.pre.(b) >= t.pre.(a) && t.pre.(b) < t.pre.(a) + t.size.(a)
