(* A dense view of a slice of the instance stream: path ids as an int
   array and arrivals as the wire's bytes, the layout a recording
   already has.  Instance frames are decoded into a batch exactly once
   and a recording is handed over as one batch of its own arrays; the
   session's lane loops then walk the arrays instead of re-reading the
   wire.

   A batch is owned by whoever fills it.  Consumers (sessions, the
   incremental linter) may read [ids]/[arrs] for indices [0, n), but
   must never write them or retain them past the call that handed them
   the batch: the next fill reuses the same storage. *)

type t = {
  mutable n : int;  (* valid prefix length of both arrays *)
  mutable ids : int array;  (* path ids *)
  mutable arrs : Bytes.t;  (* arrival bytes, as in {!Path.arrival_code} *)
}

let create ?(capacity = 1024) () =
  let capacity = max 1 capacity in
  { n = 0; ids = Array.make capacity 0; arrs = Bytes.make capacity '\000' }

let length t = t.n

let clear t = t.n <- 0

(* Capacity for [n] instances in both arrays, keeping their common
   prefix; amortized doubling so refills never reallocate at steady
   state. *)
let ensure t n =
  let cap = min (Array.length t.ids) (Bytes.length t.arrs) in
  if n > cap then begin
    let size = max n (2 * cap) in
    let ids = Array.make size 0 and arrs = Bytes.make size '\000' in
    Array.blit t.ids 0 ids 0 cap;
    Bytes.blit t.arrs 0 arrs 0 cap;
    t.ids <- ids;
    t.arrs <- arrs
  end

let set_length t n =
  if n < 0 then invalid_arg "Batch.set_length: negative length";
  ensure t n;
  t.n <- n
