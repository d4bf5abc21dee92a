module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path

(* k-iteration NET: the per-head counter and trip point are exactly
   NET's, but a trip opens a collection window — the tripping tail plus
   the next [k - 1] back-edge-chained tails are all offered, so the
   consumer materializes a k-iteration hot region from one trip.  An
   [Entry]/[Continuation] arrival breaks the chain and closes the
   window early.

   At [k = 1] the window is empty after the trip and the scheme reduces
   bit-identically to [Net] (property-tested). *)

type state = {
  delay : int;
  counters : (Cfg.block_id, int) Hashtbl.t;
  mutable remaining : int;  (* tails still owed by the open window *)
  mutable ops : int;
  mutable collection : int;
}

let make k : Scheme.packed =
  if k < 1 then invalid_arg "Net_k.make: k must be >= 1";
  (module struct
    type t = state

    let name = "net-k" ^ string_of_int k

    let kernel = Scheme.Net_k k

    let create ~program ~delay =
      ignore program;
      if delay < 1 then invalid_arg ("Net_k." ^ name ^ ": delay must be >= 1");
      { delay; counters = Hashtbl.create 256; remaining = 0; ops = 0;
        collection = 0 }

    let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
      ignore n_branches;
      ignore n_blocks;
      match arrival with
      | Path.Entry | Path.Continuation ->
        (* The back-edge chain broke: whatever the window still owed is
           not a continuation of the tripping iteration. *)
        t.remaining <- 0;
        None
      | Path.Loop_head ->
        t.ops <- t.ops + 1;
        let count =
          1 + Option.value ~default:0 (Hashtbl.find_opt t.counters head)
        in
        if count >= t.delay then begin
          (* Counter trips: re-arm, predict, and open the window.  A
             trip inside an open window restarts it — the fresher
             evidence wins. *)
          Hashtbl.replace t.counters head 0;
          t.remaining <- k - 1;
          Some path_id
        end
        else begin
          Hashtbl.replace t.counters head count;
          if t.remaining > 0 then begin
            t.remaining <- t.remaining - 1;
            Some path_id
          end
          else None
        end

    let collect t ~n_blocks = t.collection <- t.collection + n_blocks

    let counter_space t = Hashtbl.length t.counters

    let profiling_ops t = t.ops

    let collection_ops t = t.collection
  end : Scheme.S)
