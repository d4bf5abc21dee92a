module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path

type t = {
  delay : int;
  counters : (int, int) Hashtbl.t;  (* path id -> executions seen *)
  mutable ops : int;
}

let name = "path-profile"

let kernel = Scheme.Path_profile

let create ~program ~delay =
  ignore program;
  if delay < 1 then invalid_arg "Path_profile.create: delay must be >= 1";
  { delay; counters = Hashtbl.create 1024; ops = 0 }

let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
  ignore head;
  ignore arrival;
  ignore n_blocks;
  (* Bit tracing: one shift per branch on the path, one table update. *)
  t.ops <- t.ops + n_branches + 1;
  let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.counters path_id) in
  Hashtbl.replace t.counters path_id count;
  (* [>=] rather than [=]: after a code-cache flush a consumer may observe
     a path whose counter is already past the threshold, and the path must
     be re-predicted immediately rather than never. *)
  if count >= t.delay then Some path_id else None

(* Path-profile-based prediction already holds the predicted path in its
   profile: materializing it is free. *)
let collect _ ~n_blocks = ignore n_blocks

let counter_space t = Hashtbl.length t.counters

let profiling_ops t = t.ops

let collection_ops _ = 0
