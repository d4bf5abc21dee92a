(* The 64-bit state lives in 8 bytes rather than a mutable [int64] field,
   so advancing it stores raw bits instead of boxing a fresh int64 on
   every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer: xor-shift-multiply mixing of the advanced state. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let next_int64 t = next t

let split t = of_state (next t)

let rec widen m bound = if m >= bound - 1 then m else widen ((m lsl 1) lor 1) bound

(* Masked rejection sampling keeps the draw unbiased. *)
let rec draw t ~bound ~mask =
  let v = Int64.to_int (next t) land max_int land mask in
  if v < bound then v else draw t ~bound ~mask

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw t ~bound ~mask:(widen 1 bound)

(* 53 high-quality bits scaled to [0,1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

let float t = unit_float t

(* [float t < p] compares [k * 2^-53] with [p] for the drawn 53-bit
   integer [k]; scaling both sides by [2^53] is exact, and for an
   integer [k], [k < x] iff [k < ceil x].  So the integer cutoff gives
   the same outcome from the same draw, without float arithmetic. *)
let bernoulli_cutoff ~p =
  if Float.is_nan p then invalid_arg "Prng.bernoulli_cutoff: NaN probability"
  else if p <= 0.0 then 0
  else if p >= 1.0 then max_int
  else int_of_float (Float.ceil (p *. 9007199254740992.0))

let bernoulli t ~cutoff =
  if cutoff <= 0 then false
  else if cutoff = max_int then true
  else Int64.to_int (Int64.shift_right_logical (next t) 11) < cutoff

let bool t ~p = bernoulli t ~cutoff:(bernoulli_cutoff ~p)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t ~bound:(Array.length arr))

(* The first index whose running sum exceeds the target, or the last. *)
let pick_cumulative t ~cumulative =
  let last = Array.length cumulative - 1 in
  let target = unit_float t *. cumulative.(last) in
  let i = ref 0 in
  while !i < last && not (target < Array.unsafe_get cumulative !i) do
    incr i
  done;
  !i

let cumulative_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Prng.pick_weighted: empty weights";
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
       if w < 0.0 then invalid_arg "Prng.pick_weighted: negative weight";
       acc := !acc +. w;
       cumulative.(i) <- !acc)
    weights;
  if !acc <= 0.0 then invalid_arg "Prng.pick_weighted: zero total weight";
  cumulative

let pick_weighted t ~weights =
  pick_cumulative t ~cumulative:(cumulative_weights weights)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
