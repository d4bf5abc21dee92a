(* A reusable dense view of a slice of the instance stream.

   Everything a replay lane loop reads per instance lives here as a
   plain int array: path ids and arrival codes.  Instance frames (or
   recording slices) are copied into a batch exactly once; the session's
   lane loops then walk the cache-resident arrays instead of re-reading
   bytes.

   A batch is a scratch buffer owned by whoever fills it.  Consumers
   (sessions, the incremental linter) may read [ids]/[arrs] for indices
   [0, n), but must never retain the arrays past the call that handed
   them the batch: the next fill reuses the same storage. *)

type t = {
  mutable n : int;  (* valid prefix length of every array below *)
  mutable ids : int array;  (* path ids *)
  mutable arrs : int array;  (* arrival codes, as in {!Recorder.arrival_code} *)
}

let create ?(capacity = 1024) () =
  let capacity = max 1 capacity in
  {
    n = 0;
    ids = Array.make capacity 0;
    arrs = Array.make capacity 0;
  }

let length t = t.n

let clear t = t.n <- 0

let grown old n =
  let a = Array.make (max n (2 * Array.length old)) 0 in
  Array.blit old 0 a 0 (Array.length old);
  a

(* Capacity for [n] instances in the wire arrays ([ids]/[arrs]);
   amortized doubling so refills never reallocate at steady state. *)
let ensure t n =
  if n > Array.length t.ids then begin
    t.ids <- grown t.ids n;
    t.arrs <- grown t.arrs n
  end

let set_length t n =
  if n < 0 then invalid_arg "Batch.set_length: negative length";
  ensure t n;
  t.n <- n

(* Same mapping as [Recorder.arrival_of_code], on the int code. *)
let kind_of_code = function
  | 0 -> Path.Loop_head
  | 1 -> Path.Entry
  | _ -> Path.Continuation
