open Hotpath_cfg

type t = {
  program : Cfg.program;
  proc : Cfg.proc_id;
  blocks : Cfg.block_id array;  (* local -> global, layout order *)
  base : Cfg.block_id;  (* smallest global id of the procedure *)
  local_of : int array;  (* global - base -> local, -1 outside the proc *)
  succ : int array array;
  pred : int array array;
}

(* Local index of global block [g]; -1 outside the procedure. *)
let find base local_of g =
  let i = g - base in
  if i >= 0 && i < Array.length local_of then local_of.(i) else -1

let build program ~proc =
  let pr = Cfg.proc program proc in
  let blocks = Array.copy pr.Cfg.blocks in
  let n = Array.length blocks in
  let base = Array.fold_left min max_int blocks in
  let span = Array.fold_left max (-1) blocks - base + 1 in
  let local_of = Array.make (max span 0) (-1) in
  Array.iteri (fun i g -> local_of.(g - base) <- i) blocks;
  let local_target dst =
    match find base local_of dst with
    | -1 ->
      invalid_arg
        (Printf.sprintf "Procgraph.build: edge target %d not in procedure %d" dst proc)
    | j -> j
  in
  (* Each block's distinct local targets, kept ascending by insertion
     into a scratch buffer (a block has at most [n] of them). *)
  let buf = Array.make n 0 and len = ref 0 in
  let add dst =
    let j = local_target dst in
    let k = ref 0 in
    while !k < !len && buf.(!k) < j do incr k done;
    if !k = !len || buf.(!k) <> j then begin
      Array.blit buf !k buf (!k + 1) (!len - !k);
      buf.(!k) <- j;
      incr len
    end
  in
  let succ =
    Array.map
      (fun g ->
         len := 0;
         Cfg.iter_succ add program g;
         Array.sub buf 0 !len)
      blocks
  in
  (* Prepending sources from the last down leaves each list ascending,
     with each source once per target. *)
  let pred = Array.make n [] in
  for i = n - 1 downto 0 do
    Array.iter (fun j -> pred.(j) <- i :: pred.(j)) succ.(i)
  done;
  { program; proc; blocks; base; local_of; succ; pred = Array.map Array.of_list pred }

let program t = t.program
let proc_id t = t.proc
let size t = Array.length t.blocks
let entry _t = 0
let global t i = t.blocks.(i)

let local t g =
  match find t.base t.local_of g with
  | -1 ->
    invalid_arg
      (Printf.sprintf "Procgraph.local: block %d not in procedure %d" g t.proc)
  | i -> i

let succ t i = t.succ.(i)
let pred t i = t.pred.(i)

let reachable t =
  let n = size t in
  let seen = Array.make n false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      Array.iter visit t.succ.(i)
    end
  in
  if n > 0 then visit 0;
  seen

let unreachable_blocks t =
  let seen = reachable t in
  let out = ref [] in
  for i = size t - 1 downto 0 do
    if not seen.(i) then out := t.blocks.(i) :: !out
  done;
  !out
