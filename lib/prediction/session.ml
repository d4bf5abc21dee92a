module Recorder = Hotpath_trace.Recorder
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Batch = Hotpath_trace.Batch
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
   boundaries — the only per-instance cost events add is one integer
   comparison against [next_sample], which is [max_int] when disabled —
   and nothing here feeds back into the replay state, so outcomes are
   byte-identical with events on and off (property-tested). *)
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

  (* Cumulative hits/noise so far are read off the captured array — the
     operational definition restricted to the instances seen so far —
     rather than tracked per instance, keeping the hot loop untouched. *)
  let sample t l ~upto ~n_paths ~captured_arr ~predictions ~profiled
      ~captured_total ~counter_space ~profiling_ops ~collection_ops =
    let lane = t.lanes.(l) in
    if counter_space > lane.hw then lane.hw <- counter_space;
    let hits, noise =
      match t.ev.ev_is_hot with
      | None -> (None, None)
      | Some is_hot ->
        let h = ref 0 and nz = ref 0 in
        for pid = 0 to n_paths - 1 do
          let c = captured_arr.(pid) in
          if c > 0 then if is_hot pid then h := !h + c else nz := !nz + c
        done;
        (Some !h, Some !nz)
    in
    Events.replay_window t.ev.ev_sink ~scheme:t.scheme ~delay:t.delays.(l)
      ~seq:lane.seq ~upto
      ~instances:(upto - lane.last_upto)
      ~predictions ~profiled ~captured:captured_total ~profiling_ops
      ~collection_ops ~counter_space ~counter_space_hw:lane.hw ?hits ?noise ();
    Events.Registry.incr t.c_windows;
    Events.Registry.add t.c_instances (upto - lane.last_upto);
    lane.seq <- lane.seq + 1;
    lane.last_upto <- upto

  (* The final (possibly short) window: every lane always gets at least
     one sample, and the last sample's cumulative fields equal the
     outcome's totals — the invariant the differential suite checks. *)
  let final t l ~upto ~n_paths ~captured_arr ~predictions ~profiled
      ~captured_total ~counter_space ~profiling_ops ~collection_ops =
    let lane = t.lanes.(l) in
    if lane.last_upto < upto || lane.seq = 0 then
      sample t l ~upto ~n_paths ~captured_arr ~predictions ~profiled
        ~captured_total ~counter_space ~profiling_ops ~collection_ops
end

(* ------------------------------------------------------------------ *)
(* Online sessions                                                     *)
(* ------------------------------------------------------------------ *)

(* The scheme-state type is existential to the session; instead of a
   first-class-module wrapper per push, [create] closes the typed state
   into monomorphic closures.  Everything the batch engine does per
   batch lives in [s_walk]; [Replay.run_many_mapped] replays through
   these same sessions, which is what makes the online/batch
   equivalence hold by construction rather than by parallel
   maintenance. *)
type t = {
  s_lint : Lint.Incremental.t option;
  s_sync : unit -> unit;
  s_walk : Batch.t -> unit;
  s_outcomes : unit -> outcome list;
  s_synced : unit -> int;
  s_instances : unit -> int;
  mutable s_done : outcome list option;
}

let first_error diags =
  match List.find_opt (fun d -> d.Diag.severity = Diag.Error) diags with
  | Some d -> Diag.to_string d
  | None -> "trace rejected by linter"

let create ?events:ev ?(lint = true) ?on_predict (module S : Scheme.S) ~delays
    ~program ~table =
  let ev = live ev in
  let lanes = Array.of_list delays in
  let gk = Array.length lanes in
  (* Scheme-side delay validation first, with each scheme's own message
     — same exception surface as the batch engine. *)
  let states = Array.map (fun delay -> S.create ~delay ~program) lanes in
  let linted =
    if lint then
      match Lint.Incremental.create ~program ~table with
      | Error diags -> Error (first_error diags)
      | Ok l -> Ok (Some l)
    else Ok None
  in
  match linted with
  | Error _ as e -> e
  | Ok s_lint ->
    (* Per-path state, grown as the table declares paths. *)
    let capacity = ref 0 in
    let heads = ref [||] and branches = ref [||] and blocks = ref [||] in
    let freq = ref [||] in
    let pa = Array.init gk (fun _ -> ref [||]) in
    let cap = Array.init gk (fun _ -> ref [||]) in
    let synced = ref 0 in
    let grow arr n default =
      let old = !arr in
      let a = Array.make n default in
      Array.blit old 0 a 0 (Array.length old);
      arr := a
    in
    let sync () =
      let np = Path_table.size table in
      if np > !synced then begin
        if np > !capacity then begin
          let n = max np (max 64 (2 * !capacity)) in
          grow heads n 0;
          grow branches n 0;
          grow blocks n 0;
          grow freq n 0;
          Array.iter (fun r -> grow r n max_int) pa;
          Array.iter (fun r -> grow r n 0) cap;
          capacity := n
        end;
        for id = !synced to np - 1 do
          let p = Path_table.path table id in
          !heads.(id) <- Path.head p;
          !branches.(id) <- p.Path.n_branches;
          !blocks.(id) <- Array.length p.Path.blocks
        done;
        synced := np
      end
    in
    let predictions = Array.init gk (fun _ -> Vec.create ()) in
    let profiled = Array.make gk 0 in
    let captured_total = Array.make gk 0 in
    let sampler =
      Option.map (fun e -> Sampler.create e ~scheme:S.name ~delays:lanes) ev
    in
    let next_sample =
      ref (match ev with None -> max_int | Some e -> e.ev_window)
    in
    let total = ref 0 in
    let sample_lanes f upto =
      match sampler with
      | None -> ()
      | Some sm ->
        for l = 0 to gk - 1 do
          f sm l ~upto ~n_paths:!synced ~captured_arr:!(cap.(l))
            ~predictions:(Vec.length predictions.(l))
            ~profiled:profiled.(l) ~captured_total:captured_total.(l)
            ~counter_space:(S.counter_space states.(l))
            ~profiling_ops:(S.profiling_ops states.(l))
            ~collection_ops:(S.collection_ops states.(l))
        done
    in
    (* The per-instance body, identical to the batch engine's walker:
       lane state persists across calls, so pushing [0, n) in one batch
       or instance-by-instance is the same computation. *)
    let walk (b : Batch.t) =
      let ids = b.Batch.ids and arrs = b.Batch.arrs and nc = Batch.length b in
      let heads = !heads
      and branches = !branches
      and blocks = !blocks
      and freq = !freq
      and base = !total in
      for j = 0 to nc - 1 do
        let pid = ids.(j) in
        let i = base + j in
        freq.(pid) <- freq.(pid) + 1;
        let head = heads.(pid)
        and n_branches = branches.(pid)
        and n_blocks = blocks.(pid)
        and arrival = Batch.kind_of_code (Array.unsafe_get arrs j) in
        for l = 0 to gk - 1 do
          let pa = !(pa.(l)) in
          if pa.(pid) < i then begin
            let cap = !(cap.(l)) in
            cap.(pid) <- cap.(pid) + 1;
            captured_total.(l) <- captured_total.(l) + 1
          end
          else begin
            profiled.(l) <- profiled.(l) + 1;
            match
              S.observe states.(l) ~head ~arrival ~path_id:pid ~n_branches
                ~n_blocks
            with
            | Some target when pa.(target) = max_int ->
              pa.(target) <- i;
              S.collect states.(l) ~n_blocks:blocks.(target);
              Vec.push predictions.(l) { target; at_instance = i };
              (match on_predict with
               | None -> ()
               | Some f -> f ~delay:lanes.(l) ~target ~at_instance:i)
            | Some _ | None -> ()
          end
        done;
        if i + 1 >= !next_sample then begin
          sample_lanes Sampler.sample (i + 1);
          next_sample := !next_sample + (Option.get ev).ev_window
        end
      done;
      total := base + nc
    in
    let outcomes () =
      sync ();
      sample_lanes Sampler.final !total;
      let np = !synced in
      List.init gk (fun l ->
          {
            scheme_name = S.name;
            delay = lanes.(l);
            total_instances = !total;
            predictions = Vec.to_array predictions.(l);
            predicted_at = Array.sub !(pa.(l)) 0 np;
            freq = Array.sub !freq 0 np;
            captured = Array.sub !(cap.(l)) 0 np;
            profiled_instances = profiled.(l);
            captured_instances = captured_total.(l);
            counter_space = S.counter_space states.(l);
            profiling_ops = S.profiling_ops states.(l);
            collection_ops = S.collection_ops states.(l);
          })
    in
    Ok
      { s_lint; s_sync = sync; s_walk = walk; s_outcomes = outcomes;
        s_synced = (fun () -> !synced); s_instances = (fun () -> !total);
        s_done = None }

let instances t = t.s_instances ()

(* The validation gate runs before any session state moves: a rejected
   batch leaves counters, predictions, and the event stream exactly as
   they were. *)
let push_batch t (b : Batch.t) =
  match t.s_done with
  | Some _ -> Error "Session.push_batch: session already finished"
  | None ->
    let n = Batch.length b in
    let gate =
      match t.s_lint with
      | Some lt ->
        let diags = Lint.Incremental.check_batch lt b in
        if Diag.has_errors diags then Error (first_error diags) else Ok ()
      | None ->
        (* Unlinted sessions still refuse ids and arrival codes the
           walker cannot process — undeclared paths would silently read
           zeroed descriptor slots. *)
        t.s_sync ();
        let np = t.s_synced () in
        let ids = b.Batch.ids and arrs = b.Batch.arrs in
        let err = ref None in
        (try
           for j = 0 to n - 1 do
             let id = ids.(j) in
             if id < 0 || id >= np then begin
               err :=
                 Some
                   (Printf.sprintf
                      "Session.push_batch: path id %d out of range (%d paths)"
                      id np);
               raise Exit
             end;
             let c = arrs.(j) in
             if c < 0 || c > 2 then begin
               err :=
                 Some
                   (Printf.sprintf
                      "Session.push_batch: invalid arrival code %d" c);
               raise Exit
             end
           done
         with Exit -> ());
        (match !err with Some e -> Error e | None -> Ok ())
    in
    (match gate with
     | Error _ as e -> e
     | Ok () ->
       t.s_sync ();
       t.s_walk b;
       Ok ())

let code_of_arrival = function
  | Path.Loop_head -> 0
  | Path.Entry -> 1
  | Path.Continuation -> 2

let push t ~path_id ~arrival =
  let b = Batch.create ~capacity:1 () in
  b.Batch.ids.(0) <- path_id;
  b.Batch.arrs.(0) <- code_of_arrival arrival;
  Batch.set_length b 1;
  push_batch t b

let finish t =
  match t.s_done with
  | Some os -> os
  | None ->
    let os = t.s_outcomes () in
    t.s_done <- Some os;
    os
