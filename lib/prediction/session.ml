module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Batch = Hotpath_trace.Batch
module Kpath = Hotpath_trace.Kpath
module Lint = Hotpath_trace.Lint
module Diag = Hotpath_analysis.Diag
module Cfg = Hotpath_cfg.Cfg
module Vec = Hotpath_util.Vec
module Events = Hotpath_util.Events

type prediction = { target : int; at_instance : int }

type outcome = {
  scheme_name : string;
  delay : int;
  total_instances : int;
  predictions : prediction array;
  predicted_at : int array;
  freq : int array;
  captured : int array;
  profiled_instances : int;
  captured_instances : int;
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

type events = {
  ev_sink : Events.sink;
  ev_window : int;
  ev_is_hot : (int -> bool) option;
}

(* The replay loop runs at a handful of ns per instance, so a sample
   window must amortize a ~µs JSON line over enough instances to keep
   the enabled overhead under the bench's 3% budget. *)
let default_events_window = 32_768

let events ?(window = default_events_window) ?is_hot sink =
  if window < 1 then invalid_arg "Replay.events: window must be >= 1";
  { ev_sink = sink; ev_window = window; ev_is_hot = is_hot }

(* A null-sink events value is "disabled": callers may thread a sink
   unconditionally and still pay nothing when it is the null one. *)
let live = function
  | Some e when Events.is_null e.ev_sink -> None
  | ev -> ev

(* Per-lane window sampling.  All sampling work happens at window
   boundaries — the session splits each batch there, so the lane loops
   never look at the sampler — and nothing here feeds back into the
   replay state, so outcomes are byte-identical with events on and off
   (property-tested). *)
module Sampler = struct
  type lane = { mutable hw : int; mutable seq : int; mutable last_upto : int }

  type t = {
    ev : events;
    scheme : string;
    delays : int array;
    lanes : lane array;
    c_windows : Events.Registry.counter;
    c_instances : Events.Registry.counter;
  }

  let create ev ~scheme ~delays =
    {
      ev;
      scheme;
      delays;
      lanes = Array.map (fun _ -> { hw = 0; seq = 0; last_upto = 0 }) delays;
      c_windows = Events.Registry.counter "replay.windows";
      c_instances = Events.Registry.counter "replay.instances";
    }

  (* Cumulative hits/noise so far are read off the lane's captured
     counts — the operational definition restricted to the instances
     seen so far — rather than tracked per instance, keeping the hot
     loop untouched.  As in [captured_total], the sums run over the
     lane's predictions, the only paths with captured executions. *)
  let sample t l ~upto ~cap ~preds ~captured_total ~counter_space
      ~profiling_ops ~collection_ops =
    let lane = t.lanes.(l) in
    if counter_space > lane.hw then lane.hw <- counter_space;
    let hits, noise =
      match t.ev.ev_is_hot with
      | None -> (None, None)
      | Some is_hot ->
        let h = ref 0 and nz = ref 0 in
        Vec.iter
          (fun p ->
             let c = cap.(p.target) in
             if c > 0 then
               if is_hot p.target then h := !h + c else nz := !nz + c)
          preds;
        (Some !h, Some !nz)
    in
    Events.replay_window t.ev.ev_sink ~scheme:t.scheme ~delay:t.delays.(l)
      ~seq:lane.seq ~upto
      ~instances:(upto - lane.last_upto)
      ~predictions:(Vec.length preds) ~profiled:(upto - captured_total)
      ~captured:captured_total
      ~profiling_ops ~collection_ops ~counter_space ~counter_space_hw:lane.hw
      ?hits ?noise ();
    Events.Registry.incr t.c_windows;
    Events.Registry.add t.c_instances (upto - lane.last_upto);
    lane.seq <- lane.seq + 1;
    lane.last_upto <- upto

  (* The final (possibly short) window: every lane always gets at least
     one sample, and the last sample's cumulative fields equal the
     outcome's totals — the invariant the differential suite checks. *)
  let final t l ~upto ~cap ~preds ~captured_total ~counter_space
      ~profiling_ops ~collection_ops =
    let lane = t.lanes.(l) in
    if lane.last_upto < upto || lane.seq = 0 then
      sample t l ~upto ~cap ~preds ~captured_total ~counter_space
        ~profiling_ops ~collection_ops
end

(* ------------------------------------------------------------------ *)
(* Lane state shared by every loop                                     *)
(* ------------------------------------------------------------------ *)

(* The per-path arrays grow as the table declares paths (see [sync]), so
   a loop reads them from this record at the start of each call and
   never across calls.  Every instance of a lane is either captured
   (its path was predicted at an earlier instance) or profiled, so the
   lanes count only captured executions; profiled totals are the
   difference. *)
type lanes = {
  delays : int array;
  on_predict : (delay:int -> target:int -> at_instance:int -> unit) option;
  mutable heads : int array;  (* per path: head block *)
  mutable branches : int array;  (* per path: branches on the path *)
  mutable blocks : int array;  (* per path: blocks on the path *)
  mutable freq : int array;  (* per path: executions so far *)
  pa : int array array;  (* per lane, per path: predicted-at, or max_int *)
  cap : int array array;  (* per lane, per path: captured executions *)
  preds : prediction Vec.t array;  (* per lane, in firing order *)
}

let grown a n default =
  let b = Array.make n default in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Lane [l] accepts a prediction of [target] at instance [i]: once per
   prediction, so off the hot path. *)
let accept ls l target i =
  ls.pa.(l).(target) <- i;
  Vec.push ls.preds.(l) { target; at_instance = i };
  match ls.on_predict with
  | None -> ()
  | Some f -> f ~delay:ls.delays.(l) ~target ~at_instance:i

(* One lane loop: [walk b ~lo ~hi ~base] replays batch slots [lo, hi)
   for every lane, slot [j] being stream instance [base + j].  Scheme
   state persists across calls, so any tiling of the stream into calls
   is the same computation. *)
type loop = {
  walk : Batch.t -> lo:int -> hi:int -> base:int -> unit;
  counter_space : int -> int;
  profiling_ops : int -> int;
  collection_ops : int -> int;
}

(* ------------------------------------------------------------------ *)
(* The five lane loops                                                 *)
(* ------------------------------------------------------------------ *)

(* The generic loop calls the scheme through its module once per
   profiled instance per lane.  It runs every scheme that declares
   [Generic], and through [Scheme.generic] it is the reference the
   kernels are tested against. *)
module Generic_loop (S : Scheme.S) = struct
  let walk states ls (b : Batch.t) ~lo ~hi ~base =
    let ids = b.Batch.ids and arrs = b.Batch.arrs in
    let heads = ls.heads and branches = ls.branches and blocks = ls.blocks in
    let freq = ls.freq and pa = ls.pa and cap = ls.cap in
    for j = lo to hi - 1 do
      let i = base + j and pid = ids.(j) in
      freq.(pid) <- freq.(pid) + 1;
      let head = heads.(pid)
      and n_branches = branches.(pid)
      and n_blocks = blocks.(pid)
      and arrival = Path.arrival_kind (Bytes.get arrs j) in
      for l = 0 to Array.length states - 1 do
        let pal = pa.(l) in
        if pal.(pid) < i then cap.(l).(pid) <- cap.(l).(pid) + 1
        else
          match
            S.observe states.(l) ~head ~arrival ~path_id:pid ~n_branches
              ~n_blocks
          with
          | Some target when pal.(target) = max_int ->
            S.collect states.(l) ~n_blocks:blocks.(target);
            accept ls l target i
          | Some _ | None -> ()
      done
    done

  let loop make ls =
    let states = Array.map (fun delay -> make ~delay) ls.delays in
    {
      walk = walk states ls;
      counter_space = (fun l -> S.counter_space states.(l));
      profiling_ops = (fun l -> S.profiling_ops states.(l));
      collection_ops = (fun l -> S.collection_ops states.(l));
    }
end

(* The kernels inline a built-in scheme into the loop and flatten its
   hashtables into arrays over dense ids (block ids for NET, path ids
   for path-profile, trie node ids for path-profile-k): no call, no
   hashing and no option allocation per instance.  Without flambda this
   data specialization is the whole speedup.  The [Array.unsafe_*]
   accesses rely on the session's gates: every batch id is a declared
   path ([push_batch]) and every declared path's head is a program
   block ([sync]). *)

(* The arrival byte NET and NET-k profile on. *)
let loop_head_code = Path.arrival_code Path.Loop_head

(* One loop for the three NET kernels: [Net], [Net_once] and
   [Last_executed_tail]. *)
type net_variant = Rearm | Once | Prev

(* Net.state flattened: counts.(h) < 0 means "no counter yet",
   last_tail.(h) < 0 "no previous tail".  [seen] counts counters ever
   allocated — NET's counter space. *)
type net_lane = {
  delay : int;
  counts : int array;
  mutable seen : int;
  retired : bool array;
  last_tail : int array;
  mutable ops : int;
  mutable collection : int;
}

let net_walk variant states ls (b : Batch.t) ~lo ~hi ~base =
  let ids = b.Batch.ids and arrs = b.Batch.arrs in
  let heads = ls.heads and blocks = ls.blocks in
  let freq = ls.freq and pa = ls.pa and cap = ls.cap in
  let v_once = variant = Once and v_prev = variant = Prev in
  for j = lo to hi - 1 do
    let i = base + j and pid = Array.unsafe_get ids j in
    Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
    (* NET profiles only targets of backward taken transfers. *)
    let loop_head = Bytes.unsafe_get arrs j = loop_head_code in
    let head = Array.unsafe_get heads pid in
    for l = 0 to Array.length states - 1 do
      let pal = Array.unsafe_get pa l in
      if Array.unsafe_get pal pid < i then begin
        let c = Array.unsafe_get cap l in
        Array.unsafe_set c pid (Array.unsafe_get c pid + 1)
      end
      else if loop_head then begin
        let st = Array.unsafe_get states l in
        if not (v_once && Array.unsafe_get st.retired head) then begin
          st.ops <- st.ops + 1;
          let c0 = Array.unsafe_get st.counts head in
          let count =
            if c0 < 0 then begin
              st.seen <- st.seen + 1;
              1
            end
            else c0 + 1
          in
          if count < st.delay then begin
            Array.unsafe_set st.counts head count;
            if v_prev then Array.unsafe_set st.last_tail head pid
          end
          else begin
            (* Counter trips: re-arm and predict. *)
            Array.unsafe_set st.counts head 0;
            if v_once then Array.unsafe_set st.retired head true;
            let target =
              if v_prev then begin
                let prev = Array.unsafe_get st.last_tail head in
                Array.unsafe_set st.last_tail head pid;
                (* Fall back to the current tail when the head has no
                   history. *)
                if prev >= 0 then prev else pid
              end
              else pid
            in
            if Array.unsafe_get pal target = max_int then begin
              (* Incremental instrumentation: one breakpoint per block,
                 charged on accepted predictions only. *)
              st.collection <- st.collection + Array.unsafe_get blocks target;
              accept ls l target i
            end
          end
        end
      end
    done
  done

let net_loop variant ~program ls =
  let n_blocks = Array.length program.Cfg.blocks in
  let states =
    Array.map
      (fun delay ->
         {
           delay;
           counts = Array.make n_blocks (-1);
           seen = 0;
           retired = (if variant = Once then Array.make n_blocks false else [||]);
           last_tail = (if variant = Prev then Array.make n_blocks (-1) else [||]);
           ops = 0;
           collection = 0;
         })
      ls.delays
  in
  {
    walk = net_walk variant states ls;
    counter_space = (fun l -> states.(l).seen);
    profiling_ops = (fun l -> states.(l).ops);
    collection_ops = (fun l -> states.(l).collection);
  }

(* Path_profile.t needs no flattened table at all.  A profiled instance
   belongs to a path its lane has not predicted, and path-profile only
   ever predicts the path it is observing, so every execution of that
   path so far was profiled: its counter is [freq].  For the same
   reason every path's first execution is profiled in every lane, and
   the counter space — paths with a counter — is lane-independent. *)
let pp_walk seen ops delays ls (b : Batch.t) ~lo ~hi ~base =
  let ids = b.Batch.ids in
  let branches = ls.branches in
  let freq = ls.freq and pa = ls.pa and cap = ls.cap in
  for j = lo to hi - 1 do
    let i = base + j and pid = Array.unsafe_get ids j in
    let f = Array.unsafe_get freq pid + 1 in
    Array.unsafe_set freq pid f;
    if f = 1 then seen := !seen + 1;
    (* Bit tracing: one shift per branch on the path, one table
       update. *)
    let cost = Array.unsafe_get branches pid + 1 in
    for l = 0 to Array.length delays - 1 do
      if Array.unsafe_get (Array.unsafe_get pa l) pid < i then begin
        let c = Array.unsafe_get cap l in
        Array.unsafe_set c pid (Array.unsafe_get c pid + 1)
      end
      else begin
        Array.unsafe_set ops l (Array.unsafe_get ops l + cost);
        (* Collection is free: path-profile already holds the path. *)
        if f >= Array.unsafe_get delays l then accept ls l pid i
      end
    done
  done

let pp_loop ls =
  let seen = ref 0 and ops = Array.make (Array.length ls.delays) 0 in
  {
    walk = pp_walk seen ops ls.delays ls;
    counter_space = (fun _ -> !seen);
    profiling_ops = (fun l -> ops.(l));
    collection_ops = (fun _ -> 0);
  }

(* Path_profile_k.state over one [Kpath.Flat] forest shared by every
   lane (k-BLPP's k-slab forest), so a window is interned once per
   session, not once per lane.  A lane's [counts] slot for a node is 0
   until the lane materializes the node, then its count plus one.  A
   lane materializes a node with the node's suffix chain, so its counter
   space is the suffix closure of the windows it visited: the node set
   a private trie fed the same advances builds.  Which instances a lane
   profiles, and so its cursor, is its own; but within one instance
   [advance] is a function of the cursor, so a lane whose cursor equals
   the previous profiled lane's takes that lane's node unprobed. *)
type ppk_lane = {
  delay : int;
  mutable counts : int array;  (* node -> 0, or count + 1 *)
  mutable space : int;  (* non-root nodes materialized *)
  mutable cur : int;
  mutable ops : int;
}

(* First visit: mark [node] and its suffix chain up to the first node
   already marked (the root is, from the start).  The chain may hold
   ids interned after [node], so the array first covers the forest. *)
let ppk_mark forest st node =
  let n = Kpath.Flat.num_nodes forest in
  if n > Array.length st.counts then
    st.counts <- grown st.counts (max n (2 * Array.length st.counts)) 0;
  let s = ref node in
  while st.counts.(!s) = 0 do
    st.counts.(!s) <- 1;
    st.space <- st.space + 1;
    s := Kpath.Flat.suffix forest !s
  done

let ppk_walk forest states ls (b : Batch.t) ~lo ~hi ~base =
  let ids = b.Batch.ids and arrs = b.Batch.arrs in
  let branches = ls.branches in
  let pa = ls.pa and cap = ls.cap and freq = ls.freq in
  for j = lo to hi - 1 do
    let i = base + j and pid = Array.unsafe_get ids j in
    Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
    let cost = Array.unsafe_get branches pid + 1 in
    let arrival = Path.arrival_kind (Bytes.unsafe_get arrs j) in
    let prev_cur = ref (-1) and prev_node = ref 0 in
    for l = 0 to Array.length states - 1 do
      let pal = Array.unsafe_get pa l in
      if Array.unsafe_get pal pid < i then begin
        let c = Array.unsafe_get cap l in
        Array.unsafe_set c pid (Array.unsafe_get c pid + 1)
      end
      else begin
        let st = Array.unsafe_get states l in
        (* Bit tracing plus the window cursor ride-along. *)
        st.ops <- st.ops + cost;
        let cur = st.cur in
        let node =
          if cur = !prev_cur then !prev_node
          else begin
            let node = Kpath.Flat.advance forest ~cur ~arrival ~pid in
            prev_cur := cur;
            prev_node := node;
            node
          end
        in
        st.cur <- node;
        if node >= Array.length st.counts
           || Array.unsafe_get st.counts node = 0
        then ppk_mark forest st node;
        let slot = Array.unsafe_get st.counts node + 1 in
        Array.unsafe_set st.counts node slot;
        if slot > st.delay && Array.unsafe_get pal pid = max_int then
          accept ls l pid i
      end
    done
  done

let ppk_loop k ls =
  let forest = Kpath.Flat.create ~k in
  let states =
    Array.map
      (fun delay ->
         (* Slot 0 is the root's. *)
         { delay; counts = [| 1 |]; space = 0; cur = Kpath.root; ops = 0 })
      ls.delays
  in
  {
    walk = ppk_walk forest states ls;
    counter_space = (fun l -> states.(l).space);
    profiling_ops = (fun l -> states.(l).ops);
    collection_ops = (fun _ -> 0);
  }

(* Net_k.state with the head table flattened like NET's. *)
type netk_lane = {
  delay : int;
  counts : int array;
  mutable seen : int;
  mutable remaining : int;
  mutable ops : int;
  mutable collection : int;
}

let netk_walk k states ls (b : Batch.t) ~lo ~hi ~base =
  let ids = b.Batch.ids and arrs = b.Batch.arrs in
  let heads = ls.heads and blocks = ls.blocks in
  let freq = ls.freq and pa = ls.pa and cap = ls.cap in
  for j = lo to hi - 1 do
    let i = base + j and pid = Array.unsafe_get ids j in
    Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
    let loop_head = Bytes.unsafe_get arrs j = loop_head_code in
    let head = Array.unsafe_get heads pid in
    for l = 0 to Array.length states - 1 do
      let pal = Array.unsafe_get pa l in
      if Array.unsafe_get pal pid < i then begin
        let c = Array.unsafe_get cap l in
        Array.unsafe_set c pid (Array.unsafe_get c pid + 1)
      end
      else begin
        let st = Array.unsafe_get states l in
        if loop_head then begin
          st.ops <- st.ops + 1;
          let c0 = Array.unsafe_get st.counts head in
          let count =
            if c0 < 0 then begin
              st.seen <- st.seen + 1;
              1
            end
            else c0 + 1
          in
          let offer =
            if count >= st.delay then begin
              (* Trip: re-arm, predict, open (or restart) the window. *)
              Array.unsafe_set st.counts head 0;
              st.remaining <- k - 1;
              true
            end
            else begin
              Array.unsafe_set st.counts head count;
              if st.remaining > 0 then begin
                st.remaining <- st.remaining - 1;
                true
              end
              else false
            end
          in
          if offer && Array.unsafe_get pal pid = max_int then begin
            st.collection <- st.collection + Array.unsafe_get blocks pid;
            accept ls l pid i
          end
        end
        else
          (* The back-edge chain broke: close the window. *)
          st.remaining <- 0
      end
    done
  done

let netk_loop k ~program ls =
  let n_blocks = Array.length program.Cfg.blocks in
  let states =
    Array.map
      (fun delay ->
         { delay; counts = Array.make n_blocks (-1); seen = 0; remaining = 0;
           ops = 0; collection = 0 })
      ls.delays
  in
  {
    walk = netk_walk k states ls;
    counter_space = (fun l -> states.(l).seen);
    profiling_ops = (fun l -> states.(l).ops);
    collection_ops = (fun l -> states.(l).collection);
  }

(* ------------------------------------------------------------------ *)
(* Online sessions                                                     *)
(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  n_blocks : int;
  table : Path_table.t;
  lint : Lint.Incremental.t option;
  ls : lanes;
  loop : loop;
  sampler : Sampler.t option;
  window : int;
  mutable next_sample : int;  (* stream index of the next window end *)
  mutable total : int;  (* instances accepted *)
  mutable n_paths : int;  (* paths whose descriptors are synced *)
  mutable finished : outcome list option;
}

let first_error diags =
  match List.find_opt (fun d -> d.Diag.severity = Diag.Error) diags with
  | Some d -> Diag.to_string d
  | None -> "trace rejected by linter"

let create ?events:ev ?(lint = true) ?on_predict (module S : Scheme.S) ~delays
    ~program ~table =
  let ev = live ev in
  let delays = Array.of_list delays in
  (* The scheme's program-wide work, once for every lane; then
     scheme-side delay validation, with each scheme's own message and
     before any other check. *)
  let make = S.create ~program in
  Array.iter (fun delay -> if delay < 1 then ignore (make ~delay)) delays;
  let linted =
    if lint then
      match Lint.Incremental.create ~program ~table with
      | Error diags -> Error (first_error diags)
      | Ok l -> Ok (Some l)
    else Ok None
  in
  match linted with
  | Error _ as e -> e
  | Ok lint ->
    let k = Array.length delays in
    let ls =
      {
        delays;
        on_predict;
        heads = [||];
        branches = [||];
        blocks = [||];
        freq = [||];
        pa = Array.make k [||];
        cap = Array.make k [||];
        preds = Array.init k (fun _ -> Vec.create ());
      }
    in
    let loop =
      match S.kernel with
      | Scheme.Generic ->
        let module G = Generic_loop (S) in
        G.loop make ls
      | Scheme.Net -> net_loop Rearm ~program ls
      | Scheme.Net_once -> net_loop Once ~program ls
      | Scheme.Last_executed_tail -> net_loop Prev ~program ls
      | Scheme.Path_profile -> pp_loop ls
      | Scheme.Path_profile_k k -> ppk_loop k ls
      | Scheme.Net_k k -> netk_loop k ~program ls
    in
    Ok
      {
        name = S.name;
        n_blocks = Array.length program.Cfg.blocks;
        table;
        lint;
        ls;
        loop;
        sampler = Option.map (fun e -> Sampler.create e ~scheme:S.name ~delays) ev;
        window = (match ev with None -> max_int | Some e -> e.ev_window);
        next_sample = (match ev with None -> max_int | Some e -> e.ev_window);
        total = 0;
        n_paths = 0;
        finished = None;
      }

let instances t = t.total

(* Bring the per-path arrays up to the table, which may have grown since
   the last push.  Each newly declared path is checked against the
   program first — it must have a head, and the head must be a program
   block, or the kernels' unchecked block-indexed reads would run off
   their arrays — so a bad table is refused before anything grows. *)
let sync t =
  let np = Path_table.size t.table in
  let rec check id =
    if id >= np then Ok ()
    else
      let blocks = (Path_table.path t.table id).Path.blocks in
      if Array.length blocks = 0 then
        Error (Printf.sprintf "Session.push_batch: path %d has no blocks" id)
      else if blocks.(0) < 0 || blocks.(0) >= t.n_blocks then
        Error
          (Printf.sprintf
             "Session.push_batch: path %d head %d is not a program block (%d \
              blocks)"
             id blocks.(0) t.n_blocks)
      else check (id + 1)
  in
  match check t.n_paths with
  | Error _ as e -> e
  | Ok () ->
    let ls = t.ls in
    if np > Array.length ls.freq then begin
      let n = max np (2 * Array.length ls.freq) in
      ls.heads <- grown ls.heads n 0;
      ls.branches <- grown ls.branches n 0;
      ls.blocks <- grown ls.blocks n 0;
      ls.freq <- grown ls.freq n 0;
      Array.iteri (fun l a -> ls.pa.(l) <- grown a n max_int) ls.pa;
      Array.iteri (fun l a -> ls.cap.(l) <- grown a n 0) ls.cap
    end;
    for id = t.n_paths to np - 1 do
      let p = Path_table.path t.table id in
      ls.heads.(id) <- Path.head p;
      ls.branches.(id) <- p.Path.n_branches;
      ls.blocks.(id) <- Array.length p.Path.blocks
    done;
    t.n_paths <- np;
    Ok ()

(* The unlinted gate: ids must be declared paths and arrival bytes
   valid, or the kernels would read past the per-path arrays.  The pass
   ORs every bound difference into one word, whose sign bit is set iff
   some instance is out of range, so a clean batch costs no
   data-dependent branch; only a rejected one is searched for its first
   offender. *)
let check_ids t (b : Batch.t) =
  let ids = b.Batch.ids and arrs = b.Batch.arrs and np = t.n_paths in
  let m = b.Batch.n and last = np - 1 in
  let acc = ref 0 in
  for j = 0 to m - 1 do
    let id = Array.unsafe_get ids j
    and c = Char.code (Bytes.unsafe_get arrs j) in
    acc := !acc lor (id lor (last - id) lor (2 - c))
  done;
  if !acc >= 0 then Ok ()
  else
    let rec first j =
      let id = ids.(j) and c = Char.code (Bytes.get arrs j) in
      if id < 0 || id >= np then
        Error
          (Printf.sprintf "Session.push_batch: path id %d out of range (%d paths)"
             id np)
      else if c > 2 then
        Error (Printf.sprintf "Session.push_batch: invalid arrival code %d" c)
      else first (j + 1)
    in
    first 0

(* Lane [l]'s captured executions so far.  Only a predicted path has
   any, and a lane predicts each path at most once, so the sum runs over
   the lane's predictions rather than the whole table. *)
let captured_total ls l =
  let cap = ls.cap.(l) in
  Vec.fold_left (fun s p -> s + cap.(p.target)) 0 ls.preds.(l)

let sample_lanes t f upto =
  match t.sampler with
  | None -> ()
  | Some sm ->
    let ls = t.ls in
    for l = 0 to Array.length ls.delays - 1 do
      f sm l ~upto ~cap:ls.cap.(l) ~preds:ls.preds.(l)
        ~captured_total:(captured_total ls l)
        ~counter_space:(t.loop.counter_space l)
        ~profiling_ops:(t.loop.profiling_ops l)
        ~collection_ops:(t.loop.collection_ops l)
    done

(* Run the lane loop over the batch, cut at sample-window ends so that
   sampling sits between loop calls, not inside any loop. *)
let walk t (b : Batch.t) =
  let m = Batch.length b and base = t.total in
  let lo = ref 0 in
  while !lo < m do
    let hi = min m (t.next_sample - base) in
    t.loop.walk b ~lo:!lo ~hi ~base;
    if base + hi >= t.next_sample then begin
      sample_lanes t Sampler.sample (base + hi);
      t.next_sample <- t.next_sample + t.window
    end;
    lo := hi
  done;
  t.total <- base + m

(* Every gate runs before any session state moves: a rejected batch
   leaves counters, predictions, and the event stream exactly as they
   were. *)
let push_batch t (b : Batch.t) =
  let ( let* ) = Result.bind in
  let* () =
    if t.finished <> None then
      Error "Session.push_batch: session already finished"
    else Ok ()
  in
  let* () =
    (* The loops read slots [0, length) unchecked. *)
    let n = b.Batch.n in
    if n < 0 || n > Array.length b.Batch.ids || n > Bytes.length b.Batch.arrs
    then Error "Session.push_batch: batch length outside its arrays"
    else Ok ()
  in
  let* () =
    match t.lint with
    | None -> Ok ()
    | Some lt ->
      let diags = Lint.Incremental.check_batch lt b in
      if Diag.has_errors diags then Error (first_error diags) else Ok ()
  in
  let* () = sync t in
  let* () = if t.lint = None then check_ids t b else Ok () in
  walk t b;
  Ok ()

let outcomes t =
  sample_lanes t Sampler.final t.total;
  (* Sized to the whole table: it may have declared paths after the last
     push.  A finished session never writes its arrays again, so one
     that is already the right size is handed out as is. *)
  let np = Path_table.size t.table in
  let fit a default =
    if np = Array.length a then a
    else if np < Array.length a then Array.sub a 0 np
    else grown a np default
  in
  let ls = t.ls in
  let freq = fit ls.freq 0 in
  List.init (Array.length ls.delays) (fun l ->
      let captured_instances = captured_total ls l in
      {
        scheme_name = t.name;
        delay = ls.delays.(l);
        total_instances = t.total;
        predictions = Vec.to_array ls.preds.(l);
        predicted_at = fit ls.pa.(l) max_int;
        freq = (if l = 0 then freq else Array.copy freq);
        captured = fit ls.cap.(l) 0;
        profiled_instances = t.total - captured_instances;
        captured_instances;
        counter_space = t.loop.counter_space l;
        profiling_ops = t.loop.profiling_ops l;
        collection_ops = t.loop.collection_ops l;
      })

let finish t =
  match t.finished with
  | Some os -> os
  | None ->
    let os = outcomes t in
    t.finished <- Some os;
    os
