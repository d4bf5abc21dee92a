module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path
module Kpath = Hotpath_trace.Kpath
module Vec = Hotpath_util.Vec

(* k-iteration path profiling (D'Elia & Demetrescu): the counter key is
   the window of up to [k] consecutive path instances chained by loop
   back-edges, not the single instance.  The scheme still offers the
   *acyclic* tail id when a window counter trips — the consumer's
   fragment unit is unchanged; only the evidence it trips on is richer.

   At [k = 1] every window is one instance, so the scheme reduces
   bit-identically to [Path_profile]: same ops, same per-path counters,
   same predictions, same counter space (property-tested). *)

type state = {
  delay : int;
  trie : Kpath.t;
  counts : int Vec.t;  (* window node id -> executions seen *)
  mutable cur : int;  (* current window (trie node) of this lane *)
  mutable ops : int;
}

let count_incr counts node =
  while Vec.length counts <= node do
    Vec.push counts 0
  done;
  let c = Vec.get counts node + 1 in
  Vec.set counts node c;
  c

let make k : Scheme.packed =
  if k < 1 then invalid_arg "Path_profile_k.make: k must be >= 1";
  (module struct
    type t = state

    let name = "path-profile-k" ^ string_of_int k

    let kernel = Scheme.Path_profile_k k

    let create ~program ~delay =
      ignore program;
      if delay < 1 then
        invalid_arg ("Path_profile_k." ^ name ^ ": delay must be >= 1");
      { delay; trie = Kpath.create ~k; counts = Vec.create (); cur = Kpath.root;
        ops = 0 }

    let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
      ignore head;
      ignore n_blocks;
      (* Same instrumentation charge as acyclic bit tracing: one shift
         per branch plus one table update — the window cursor ride-along
         is the k-slab trick, not extra per-branch work. *)
      t.ops <- t.ops + n_branches + 1;
      t.cur <- Kpath.advance t.trie ~cur:t.cur ~arrival ~pid:path_id;
      let count = count_incr t.counts t.cur in
      if count >= t.delay then Some path_id else None

    let collect _ ~n_blocks = ignore n_blocks

    let counter_space t = Kpath.num_nodes t.trie - 1

    let profiling_ops t = t.ops

    let collection_ops _ = 0
  end : Scheme.S)
