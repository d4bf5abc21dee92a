module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path
module Freq = Hotpath_analysis.Freq
module Kselect = Hotpath_analysis.Kselect

(* net-kauto: NET's counters and trip point, with the post-trip
   collection window sized per head by the static {!Kselect} analysis
   instead of a global k.  A trip at a head whose loop statically
   supports depth k offers the tripping tail plus the next [k - 1]
   back-edge-chained tails (exactly [Net_k]'s window mechanics); heads
   whose loops are too branchy or too short-lived stay at k = 1 and
   behave as plain NET. *)

type t = {
  delay : int;
  ksel : Kselect.t;
  counters : (Cfg.block_id, int) Hashtbl.t;
  mutable remaining : int;
  mutable ops : int;
  mutable collection : int;
}

let name = "net-kauto"

let kernel = Scheme.Generic

let create ~program =
  let ksel = Kselect.analyze (Freq.estimate program) in
  fun ~delay ->
    if delay < 1 then invalid_arg "Net_kauto.create: delay must be >= 1";
    { delay; ksel; counters = Hashtbl.create 256; remaining = 0; ops = 0; collection = 0 }

let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
  ignore n_branches;
  ignore n_blocks;
  match arrival with
  | Path.Entry | Path.Continuation ->
    t.remaining <- 0;
    None
  | Path.Loop_head ->
    t.ops <- t.ops + 1;
    let count =
      1 + Option.value ~default:0 (Hashtbl.find_opt t.counters head)
    in
    if count >= t.delay then begin
      Hashtbl.replace t.counters head 0;
      t.remaining <- Kselect.k_for t.ksel head - 1;
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
