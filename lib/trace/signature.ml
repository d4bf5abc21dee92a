module Cfg = Hotpath_cfg.Cfg

type t = {
  shead : Cfg.block_id;
  slen : int;
  sbits : int;  (* bit i = outcome of i-th branch; < 2^62, so native *)
  sindirects : Cfg.block_id array;  (* execution order *)
}

let max_branches = 62

let head s = s.shead

let length s = s.slen

let bit s i =
  if i < 0 || i >= s.slen then invalid_arg "Signature.bit: index out of range";
  (s.sbits lsr i) land 1 = 1

let history s = Int64.of_int s.sbits

let indirect_targets s = Array.to_list s.sindirects

let n_indirects s = Array.length s.sindirects

let iter_indirects f s = Array.iter f s.sindirects

let equal a b =
  a.shead = b.shead && a.slen = b.slen && a.sbits = b.sbits
  && Array.length a.sindirects = Array.length b.sindirects
  && Array.for_all2 Int.equal a.sindirects b.sindirects

(* Lexicographic over the targets in order; a proper prefix sorts first. *)
let rec compare_indirects a b i =
  if i = Array.length a then if i = Array.length b then 0 else -1
  else if i = Array.length b then 1
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_indirects a b (i + 1)

let compare a b =
  let c = Int.compare a.shead b.shead in
  if c <> 0 then c
  else
    let c = Int.compare a.slen b.slen in
    if c <> 0 then c
    else
      let c = Int.compare a.sbits b.sbits in
      if c <> 0 then c else compare_indirects a.sindirects b.sindirects 0

(* One hash for a frozen signature and for a builder's live state, so a
   probe from the segmenter lands where the frozen copy was stored. *)
let rec hash_indirects targets n i h =
  if i = n then h else hash_indirects targets n (i + 1) ((h * 31) + targets.(i))

let hash_parts ~head ~len ~bits targets ~n_indirects =
  let h = head * 0x9E3779B1 in
  let h = (h * 31) + len in
  let h = (h * 31) + bits in
  let h = (h * 31) + (bits lsr 31) in
  hash_indirects targets n_indirects 0 h land max_int

let hash s =
  hash_parts ~head:s.shead ~len:s.slen ~bits:s.sbits s.sindirects
    ~n_indirects:(Array.length s.sindirects)

let to_string s =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (Printf.sprintf "B%d." s.shead);
  for i = 0 to s.slen - 1 do
    Buffer.add_char buf (if bit s i then '1' else '0')
  done;
  if Array.length s.sindirects > 0 then begin
    Buffer.add_string buf ",[";
    Array.iteri
      (fun i t ->
         if i > 0 then Buffer.add_char buf ';';
         Buffer.add_string buf (Printf.sprintf "B%d" t))
      s.sindirects;
    Buffer.add_char buf ']'
  end;
  Buffer.contents buf

let pp ppf s = Format.pp_print_string ppf (to_string s)

module Builder = struct
  type signature = t

  type t = {
    mutable bhead : Cfg.block_id;
    mutable blen : int;
    mutable bbits : int;
    mutable bindirects : Cfg.block_id array;  (* [0, bn) live, reused *)
    mutable bn : int;
  }

  let create ~head = { bhead = head; blen = 0; bbits = 0; bindirects = [||]; bn = 0 }

  let reset t ~head =
    t.bhead <- head;
    t.blen <- 0;
    t.bbits <- 0;
    t.bn <- 0

  let add_branch t ~taken =
    if t.blen >= max_branches then
      invalid_arg "Signature.Builder.add_branch: path branch cap exceeded";
    if taken then t.bbits <- t.bbits lor (1 lsl t.blen);
    t.blen <- t.blen + 1

  let add_indirect t ~target =
    if t.bn = Array.length t.bindirects then begin
      let grown = Array.make (max 4 (2 * t.bn)) 0 in
      Array.blit t.bindirects 0 grown 0 t.bn;
      t.bindirects <- grown
    end;
    t.bindirects.(t.bn) <- target;
    t.bn <- t.bn + 1

  let branch_count t = t.blen

  let hash t =
    hash_parts ~head:t.bhead ~len:t.blen ~bits:t.bbits t.bindirects ~n_indirects:t.bn

  let rec same_indirects a b n i = i = n || (a.(i) = b.(i) && same_indirects a b n (i + 1))

  let matches t (s : signature) =
    t.bhead = s.shead && t.blen = s.slen && t.bbits = s.sbits
    && t.bn = Array.length s.sindirects
    && same_indirects t.bindirects s.sindirects t.bn 0

  let freeze t =
    {
      shead = t.bhead;
      slen = t.blen;
      sbits = t.bbits;
      sindirects = Array.sub t.bindirects 0 t.bn;
    }
end
