type t = int32

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let empty = 0l

(* Standard composable form: invert on entry and exit, so the state
   between updates is the plain (finalized) checksum. *)
let update_gen get crc buf ~pos ~len =
  let table = Lazy.force table in
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (get buf i))) 0xFFl) in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Slicing-by-4 tables on native ints for the bigstring loop below:
   [t.(0)] is the standard byte table widened to int, and each
   [t.(j+1).(b)] advances [t.(j).(b)] one more zero byte, so four
   lookups absorb four message bytes at once. *)
let tables_nat =
  lazy
    (let t0 =
       Array.map (fun c -> Int32.to_int c land 0xFFFF_FFFF) (Lazy.force table)
     in
     let next t = Array.map (fun c -> t0.(c land 0xFF) lxor (c lsr 8)) t in
     let t1 = next t0 in
     let t2 = next t1 in
     let t3 = next t2 in
     [| t0; t1; t2; t3 |])

(* Specialized loop for the ingest hot path: every HOTPATH3 reader
   checksums its frames out of a bigstring window, so this replaces
   [update_gen]'s per-byte closure call with a slicing-by-4 state
   machine on untagged native ints (the state fits 32 bits and stays
   non-negative, so [lsr] is the logical shift).  The [bigstring]
   annotation matters: without it every [unsafe_get] is a polymorphic C
   call, about 4x slower.  Byte-compatible with [update_gen] by
   construction — both compute reflected CRC-32 — and the shared test
   suite pins them to each other. *)
let update_bigstring crc (b : bigstring) ~pos ~len =
  if pos < 0 || len < 0 || pos > Bigarray.Array1.dim b - len then
    invalid_arg "Crc32.update_bigstring: slice out of bounds";
  let t = Lazy.force tables_nat in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let c = ref (Int32.to_int (Int32.lognot crc) land 0xFFFF_FFFF) in
  let i = ref pos in
  let last = pos + len in
  while last - !i >= 4 do
    let p = !i in
    let word =
      Char.code (Bigarray.Array1.unsafe_get b p)
      lor (Char.code (Bigarray.Array1.unsafe_get b (p + 1)) lsl 8)
      lor (Char.code (Bigarray.Array1.unsafe_get b (p + 2)) lsl 16)
      lor (Char.code (Bigarray.Array1.unsafe_get b (p + 3)) lsl 24)
    in
    let x = !c lxor word in
    c :=
      Array.unsafe_get t3 (x land 0xFF)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((x lsr 24) land 0xFF);
    i := p + 4
  done;
  while !i < last do
    let byte = Char.code (Bigarray.Array1.unsafe_get b !i) in
    c := Array.unsafe_get t0 ((!c lxor byte) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  Int32.lognot (Int32.of_int !c)

(* The same slicing-by-4 loop over an OCaml byte buffer, for the writer,
   which checksums every frame it encodes. *)
let update_slice crc (b : Bytes.t) ~pos ~len =
  let t = Lazy.force tables_nat in
  let t0 = t.(0) and t1 = t.(1) and t2 = t.(2) and t3 = t.(3) in
  let c = ref (Int32.to_int (Int32.lognot crc) land 0xFFFF_FFFF) in
  let i = ref pos in
  let last = pos + len in
  while last - !i >= 4 do
    let p = !i in
    let word =
      Char.code (Bytes.unsafe_get b p)
      lor (Char.code (Bytes.unsafe_get b (p + 1)) lsl 8)
      lor (Char.code (Bytes.unsafe_get b (p + 2)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (p + 3)) lsl 24)
    in
    let x = !c lxor word in
    c :=
      Array.unsafe_get t3 (x land 0xFF)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 ((x lsr 24) land 0xFF);
    i := p + 4
  done;
  while !i < last do
    let byte = Char.code (Bytes.unsafe_get b !i) in
    c := Array.unsafe_get t0 ((!c lxor byte) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  Int32.lognot (Int32.of_int !c)

let update_bytes crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.update_bytes: slice out of bounds";
  update_slice crc b ~pos ~len

(* The loop only reads, so the string's bytes need no copy. *)
let update_string crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update_string: slice out of bounds";
  update_slice crc (Bytes.unsafe_of_string s) ~pos ~len

(* [update_gen]'s byte-at-a-time table loop stays the reference: the
   test suite pins every slicing loop to it through this function. *)
let update_char crc ch = update_gen (fun c _ -> Char.code c) crc ch ~pos:0 ~len:1

let digest_string s = update_string empty s ~pos:0 ~len:(String.length s)
