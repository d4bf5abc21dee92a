module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path

type fragment = {
  fr_path : int;
  fr_head : Cfg.block_id;
  fr_blocks : Cfg.block_id array;
  fr_instrs : int;
}

let fragment_of_path (p : Path.t) =
  {
    fr_path = p.Path.id;
    fr_head = Path.head p;
    fr_blocks = p.Path.blocks;
    fr_instrs = p.Path.n_instrs;
  }

type eviction = Reject_when_full | Evict_lru

(* Every per-path array is indexed by path id and grows on demand (the
   online driver's path table grows while the engine runs).  [stamp] is
   0 for an absent path, otherwise its last-use clock: the clock only
   increases, so resident stamps are distinct and the LRU victim is
   unique.  Each head's residents form a newest-first chain through
   [next], starting at [first.(head)]; -1 ends a chain.  [frag] and
   [next] are meaningful only for resident paths.  [members] lists
   the resident paths (its first [size] slots, [pos] is the inverse), so
   a flush or an LRU scan costs O(resident). *)
type t = {
  capacity : int;
  eviction : eviction;
  mutable frag : fragment array;
  mutable stamp : int array;
  mutable next : int array;
  mutable pos : int array;
  mutable first : int array;  (* by head block *)
  mutable members : int array;
  mutable size : int;
  mutable clock : int;
  mutable flushes : int;
  mutable inserted : int;
  mutable evicted : int;
}

let absent = { fr_path = -1; fr_head = -1; fr_blocks = [||]; fr_instrs = 0 }

let create ?(capacity = 8192) ?(eviction = Reject_when_full) () =
  if capacity < 1 then invalid_arg "Fragment_cache.create: capacity must be >= 1";
  let n = 256 in
  { capacity; eviction; frag = Array.make n absent; stamp = Array.make n 0;
    next = Array.make n (-1); pos = Array.make n 0; first = Array.make n (-1);
    members = Array.make (min capacity n) 0; size = 0; clock = 0; flushes = 0;
    inserted = 0; evicted = 0 }

(* [a] extended to at least [need] slots (doubling), new slots [fill]. *)
let grow a need fill =
  let len = Array.length a in
  if need <= len then a
  else begin
    let b = Array.make (max need (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let ensure_path t pid =
  if pid >= Array.length t.stamp then begin
    let need = pid + 1 in
    t.frag <- grow t.frag need absent;
    t.stamp <- grow t.stamp need 0;
    t.next <- grow t.next need (-1);
    t.pos <- grow t.pos need 0
  end

let size t = t.size

let is_full t = t.size >= t.capacity

let mem t pid = pid >= 0 && pid < Array.length t.stamp && t.stamp.(pid) <> 0

let bump t pid =
  t.clock <- t.clock + 1;
  t.stamp.(pid) <- t.clock

let touch t pid = if mem t pid then bump t pid

let chain t head = if head >= 0 && head < Array.length t.first then t.first.(head) else -1

let remove t pid =
  let head = t.frag.(pid).fr_head in
  (if t.first.(head) = pid then t.first.(head) <- t.next.(pid)
   else begin
     let prev = ref t.first.(head) in
     while t.next.(!prev) <> pid do prev := t.next.(!prev) done;
     t.next.(!prev) <- t.next.(pid)
   end);
  let i = t.pos.(pid) and last = t.members.(t.size - 1) in
  t.members.(i) <- last;
  t.pos.(last) <- i;
  t.size <- t.size - 1;
  t.stamp.(pid) <- 0

let lru_victim t =
  let best = ref (-1) in
  for i = 0 to t.size - 1 do
    let pid = t.members.(i) in
    if !best < 0 || t.stamp.(pid) < t.stamp.(!best) then best := pid
  done;
  !best

let do_insert t fr =
  let pid = fr.fr_path and head = fr.fr_head in
  ensure_path t pid;
  t.first <- grow t.first (head + 1) (-1);
  t.frag.(pid) <- fr;
  t.next.(pid) <- t.first.(head);
  t.first.(head) <- pid;
  t.members <- grow t.members (t.size + 1) 0;
  t.members.(t.size) <- pid;
  t.pos.(pid) <- t.size;
  t.size <- t.size + 1;
  bump t pid;
  t.inserted <- t.inserted + 1

let insert t fr =
  if mem t fr.fr_path then `Duplicate
  else if not (is_full t) then begin
    do_insert t fr;
    `Inserted
  end
  else
    match t.eviction with
    | Reject_when_full -> `Full
    | Evict_lru ->
      let pid = lru_victim t in
      let victim = t.frag.(pid) in
      remove t pid;
      t.evicted <- t.evicted + 1;
      do_insert t fr;
      `Evicted victim

let find_path t pid =
  if mem t pid then begin
    bump t pid;
    Some t.frag.(pid)
  end
  else None

let find_head t head =
  let rec collect pid =
    if pid < 0 then []
    else begin
      bump t pid;
      let rest = collect t.next.(pid) in
      t.frag.(pid) :: rest
    end
  in
  collect (chain t head)

let longest_prefix t blocks =
  let n = Array.length blocks in
  let best = ref 0 in
  let pid = ref (if n = 0 then -1 else chain t blocks.(0)) in
  while !pid >= 0 do
    bump t !pid;
    let fb = t.frag.(!pid).fr_blocks in
    let m = min n (Array.length fb) in
    let i = ref 0 in
    while !i < m && fb.(!i) = blocks.(!i) do incr i done;
    if !i > !best then best := !i;
    pid := t.next.(!pid)
  done;
  !best

let flush t =
  for i = 0 to t.size - 1 do
    let pid = t.members.(i) in
    t.first.(t.frag.(pid).fr_head) <- -1;
    t.stamp.(pid) <- 0
  done;
  t.size <- 0;
  t.flushes <- t.flushes + 1

let flush_count t = t.flushes

let inserted_total t = t.inserted

let evicted_total t = t.evicted
