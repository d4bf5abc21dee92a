module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path
module Freq = Hotpath_analysis.Freq

(* Zero-profiling prediction: the hot-head set is fixed at program load
   from the static frequency estimate — every head whose estimated flow
   share clears the paper's 0.1% hot threshold — and the scheme simply
   materializes the first tail that executes at each of those heads.
   Trace path ids are interning artifacts with no static meaning, so
   "rank k-paths at load time" operationally means committing, per
   statically-hot head, to whichever path first arrives there: a NET
   trip at delay 1 restricted to the statically-chosen heads, with no
   counters and no profiling operations at all.

   The prediction delay is accepted (and validated) for interface
   parity but is deliberately inert — the scheme's fig2/3 series is
   flat in tau, which is the point: it is the zero-profiling-cost
   baseline every profiled scheme must beat. *)

type t = {
  armed : Bytes.t;  (* per block id: '\001' while the head is armed *)
  mutable collection : int;
}

let name = "static"

let kernel = Scheme.Generic

(* Mirrors [Suite.hot_threshold]; [lib/workloads] sits above this
   library, so the constant is restated rather than imported. *)
let hot_share = 0.001

let create ~program =
  let heads = Freq.ranked_heads (Freq.estimate program) in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 heads in
  let hot =
    if total > 0.0 then List.filter (fun (_, f) -> f >= hot_share *. total) heads
    else []
  in
  let armed = Bytes.make (Array.length program.Cfg.blocks) '\000' in
  List.iter (fun (h, _) -> Bytes.set armed h '\001') hot;
  fun ~delay ->
    if delay < 1 then invalid_arg "Static.create: delay must be >= 1";
    { armed = Bytes.copy armed; collection = 0 }

let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
  ignore n_branches;
  ignore n_blocks;
  match arrival with
  | Path.Entry | Path.Continuation -> None
  | Path.Loop_head ->
    if Bytes.get t.armed head = '\001' then begin
      Bytes.set t.armed head '\000';
      Some path_id
    end
    else None

(* Materializing a fragment still costs real instrumentation work, the
   same per-block breakpoint charge as NET's collector. *)
let collect t ~n_blocks = t.collection <- t.collection + n_blocks

let counter_space _ = 0

let profiling_ops _ = 0

let collection_ops t = t.collection
