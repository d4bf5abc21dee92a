module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path
module Freq = Hotpath_analysis.Freq
module Kselect = Hotpath_analysis.Kselect
module Vec = Hotpath_util.Vec

(* path-profile-kauto: k-iteration path profiling where the window
   depth follows the statically-selected k of the arriving head.  The
   fixed-k [Kpath] trie cannot host per-head depths, so windows are
   interned directly: on a back-edge arrival at head [h] the previous
   window is truncated to [k_for h - 1] instances before the new one is
   consed on; an [Entry]/[Continuation] arrival restarts the window.

   Counter space counts materialized windows only — unlike the fixed-k
   trie there are no suffix-link interior nodes, so the number is the
   live-counter count exactly (see DESIGN.md).  With k = 1 selected
   everywhere each window is a single instance and the scheme keeps the
   same counters, predictions, and ops as [Path_profile]
   (property-tested). *)

type t = {
  delay : int;
  ksel : Kselect.t;
  ids : (int list, int) Hashtbl.t;  (* window (newest first) -> dense id *)
  counts : int Vec.t;
  mutable window : int list;
  mutable ops : int;
}

let name = "path-profile-kauto"

let kernel = Scheme.Generic

let create ~program =
  let ksel = Kselect.analyze (Freq.estimate program) in
  fun ~delay ->
    if delay < 1 then
      invalid_arg "Path_profile_kauto.create: delay must be >= 1";
    { delay; ksel; ids = Hashtbl.create 1024; counts = Vec.create (); window = []; ops = 0 }

let rec take n xs =
  if n <= 0 then []
  else match xs with [] -> [] | x :: tl -> x :: take (n - 1) tl

let intern t w =
  match Hashtbl.find_opt t.ids w with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.ids in
    Hashtbl.add t.ids w id;
    Vec.push t.counts 0;
    id

let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
  ignore n_blocks;
  (* Same per-instance charge as the k-trie scheme: one shift per
     branch plus one table update. *)
  t.ops <- t.ops + n_branches + 1;
  (match arrival with
   | Path.Entry | Path.Continuation -> t.window <- [ path_id ]
   | Path.Loop_head ->
     t.window <- path_id :: take (Kselect.k_for t.ksel head - 1) t.window);
  let id = intern t t.window in
  let c = Vec.get t.counts id + 1 in
  Vec.set t.counts id c;
  if c >= t.delay then Some path_id else None

let collect _ ~n_blocks = ignore n_blocks

let counter_space t = Hashtbl.length t.ids

let profiling_ops t = t.ops

let collection_ops _ = 0
