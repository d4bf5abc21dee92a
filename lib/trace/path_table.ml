module Cfg = Hotpath_cfg.Cfg
module Vec = Hotpath_util.Vec

(* One open-addressed index (linear probing, at most half full) over the
   paths in id order.  A slot holds a path id, or -1 when empty, and the
   signature hash of that path, so most mismatches are rejected without
   touching the path; a hash match is confirmed on the full key. *)
type t = {
  mutable slots : int array;
  mutable hashes : int array;
  mutable shift : int;  (* slot index = top (int_size - shift) bits of the mixed hash *)
  by_id : Path.t Vec.t;
}

let initial_bits = 10

let create () =
  {
    slots = Array.make (1 lsl initial_bits) (-1);
    hashes = Array.make (1 lsl initial_bits) 0;
    shift = Sys.int_size - initial_bits;
    by_id = Vec.create ();
  }

let size t = Vec.length t.by_id

let home t h = (h * 0x1E3779B97F4A7C15) lsr t.shift

let mask t = Array.length t.slots - 1

(* Id of the path [same] accepts, or [-1 - slot] with the free slot
   where it would go. *)
let rec probe t h same i =
  let id = Array.unsafe_get t.slots i in
  if id < 0 then -1 - i
  else if Array.unsafe_get t.hashes i = h && same (Vec.get t.by_id id).Path.signature
  then id
  else probe t h same ((i + 1) land mask t)

let rec probe_builder t h b i =
  let id = Array.unsafe_get t.slots i in
  if id < 0 then -1 - i
  else if
    Array.unsafe_get t.hashes i = h
    && Signature.Builder.matches b (Vec.get t.by_id id).Path.signature
  then id
  else probe_builder t h b ((i + 1) land mask t)

let rec free_slot t i =
  if Array.unsafe_get t.slots i < 0 then i else free_slot t ((i + 1) land mask t)

let grow t =
  let slots = t.slots and hashes = t.hashes in
  let cap = 2 * Array.length slots in
  t.slots <- Array.make cap (-1);
  t.hashes <- Array.make cap 0;
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i id ->
       if id >= 0 then begin
         let h = hashes.(i) in
         let j = free_slot t (home t h) in
         t.slots.(j) <- id;
         t.hashes.(j) <- h
       end)
    slots

let add t ~slot ~hash signature ~blocks ~n_instrs ~n_branches ~end_kind =
  let id = Vec.length t.by_id in
  Vec.push t.by_id { Path.id; signature; blocks; n_instrs; n_branches; end_kind };
  t.slots.(slot) <- id;
  t.hashes.(slot) <- hash;
  if 2 * (id + 1) > Array.length t.slots then grow t;
  id

(* Bit-tracing signatures determine the block sequence (see DESIGN.md
   §5); a length mismatch on a hit would indicate a recorder bug. *)
let check_hit t id ~n_blocks =
  assert (Array.length (Vec.get t.by_id id).Path.blocks = n_blocks);
  id

let intern t signature ~blocks ~n_instrs ~n_branches ~end_kind =
  let hash = Signature.hash signature in
  let r = probe t hash (Signature.equal signature) (home t hash) in
  if r >= 0 then check_hit t r ~n_blocks:(Array.length blocks)
  else add t ~slot:(-1 - r) ~hash signature ~blocks ~n_instrs ~n_branches ~end_kind

let intern_builder t b ~blocks ~n_blocks ~n_instrs ~end_kind =
  let hash = Signature.Builder.hash b in
  let r = probe_builder t hash b (home t hash) in
  if r >= 0 then check_hit t r ~n_blocks
  else
    add t ~slot:(-1 - r) ~hash (Signature.Builder.freeze b)
      ~blocks:(Array.sub blocks 0 n_blocks) ~n_instrs
      ~n_branches:(Signature.Builder.branch_count b) ~end_kind

let find t signature =
  let hash = Signature.hash signature in
  let r = probe t hash (Signature.equal signature) (home t hash) in
  if r >= 0 then Some r else None

let path t id =
  if id < 0 || id >= Vec.length t.by_id then
    invalid_arg (Printf.sprintf "Path_table.path: unknown id %d" id);
  Vec.get t.by_id id

let paths t = Vec.to_array t.by_id

let iter f t = Vec.iter f t.by_id

let unique_heads t =
  let heads = Hashtbl.create 64 in
  Vec.iter (fun p -> Hashtbl.replace heads (Path.head p) ()) t.by_id;
  List.sort Int.compare (Hashtbl.fold (fun h () acc -> h :: acc) heads [])
