module Scheme = Hotpath_prediction.Scheme
module Recorder = Hotpath_trace.Recorder
module Path_table = Hotpath_trace.Path_table
module Path = Hotpath_trace.Path
module Cfg = Hotpath_cfg.Cfg
module Events = Hotpath_util.Events

type scheme_costs = {
  per_instance : n_branches:int -> arrival:Path.head_kind -> float;
  per_prediction : n_blocks:int -> n_instrs:int -> float;
}

let path_profile_costs (c : Cost_model.t) =
  {
    per_instance =
      (fun ~n_branches ~arrival ->
         ignore arrival;
         (float_of_int n_branches *. c.Cost_model.shift_cycles)
         +. c.Cost_model.table_update_cycles);
    per_prediction =
      (fun ~n_blocks ~n_instrs ->
         ignore n_blocks;
         float_of_int n_instrs *. c.Cost_model.optimize_cycles_per_instr);
  }

let net_costs (c : Cost_model.t) =
  {
    per_instance =
      (fun ~n_branches ~arrival ->
         ignore n_branches;
         match arrival with
         | Path.Loop_head -> c.Cost_model.counter_cycles
         | Path.Entry | Path.Continuation -> 0.0);
    per_prediction =
      (fun ~n_blocks ~n_instrs ->
         (float_of_int n_blocks *. c.Cost_model.collection_cycles_per_block)
         +. (float_of_int n_instrs *. c.Cost_model.optimize_cycles_per_instr));
  }

let static_costs (c : Cost_model.t) =
  {
    per_instance = (fun ~n_branches ~arrival ->
        ignore n_branches;
        ignore arrival;
        0.0);
    per_prediction =
      (fun ~n_blocks ~n_instrs ->
         (float_of_int n_blocks *. c.Cost_model.collection_cycles_per_block)
         +. (float_of_int n_instrs *. c.Cost_model.optimize_cycles_per_instr));
  }

let costs_for ~scheme c =
  if String.starts_with ~prefix:"path-profile" scheme then
    path_profile_costs c
  else if scheme = "static" then static_costs c
  else net_costs c

type flush_policy = { fp_window : int; fp_factor : float; fp_min : int }

let default_flush_policy = { fp_window = 4096; fp_factor = 2.5; fp_min = 24 }

type bail_policy = {
  bp_overhead_frac : float;
  bp_interp_frac : float;
  bp_window : int;
  bp_streak : int;
}

let default_bail_policy =
  { bp_overhead_frac = 0.30; bp_interp_frac = 1.5; bp_window = 4096; bp_streak = 8 }

type config = {
  scheme : Scheme.packed;
  scheme_costs : scheme_costs;
  delay : int;
  cost : Cost_model.t;
  cache_capacity : int;
  cache_eviction : Fragment_cache.eviction;
  flush_policy : flush_policy option;
  bail_policy : bail_policy option;
  events : Events.sink;
  events_window : int;
}

let config ?(cost = Cost_model.default) ?(cache_capacity = 16_384)
    ?(cache_eviction = Fragment_cache.Reject_when_full)
    ?(flush_policy = Some default_flush_policy)
    ?(bail_policy = Some default_bail_policy) ?(events = Events.null)
    ?(events_window = 8_192) ~scheme ~scheme_costs ~delay () =
  (match Cost_model.validate cost with
   | Ok () -> ()
   | Error e -> invalid_arg ("Engine.config: " ^ e));
  if delay < 1 then invalid_arg "Engine.config: delay must be >= 1";
  if events_window < 1 then
    invalid_arg "Engine.config: events_window must be >= 1";
  { scheme; scheme_costs; delay; cost; cache_capacity; cache_eviction; flush_policy;
    bail_policy; events; events_window }

type result = {
  r_scheme : string;
  r_delay : int;
  r_native_cycles : float;
  r_dynamo_cycles : float;
  r_speedup_pct : float;
  r_bailed : bool;
  r_fragments : int;
  r_flushes : int;
  r_full_hits : int;
  r_partial_hits : int;
  r_misses : int;
  r_native_tail : int;
  r_cycles_fragment : float;
  r_cycles_interp : float;
  r_cycles_profile : float;
  r_cycles_overhead : float;
  r_cycles_flush : float;
  r_cache_coverage_pct : float;
}

(* Per-instance execution logic, shared by the offline replay (Engine.run)
   and the live driver (Online): given a completed path instance, decide
   where it executes, charge cycles, feed the prediction scheme, install
   fragments, and apply the flush / bail-out policies.  One instance costs
   array reads and unboxed float adds: the cycle totals live in a
   float-only record, and each path's profiling costs and instruction
   prefix sums are memoized the first time it is seen. *)
module Stepper = struct
  (* A float-only record is stored flat, so its updates do not box. *)
  type acc = {
    mutable native : float;
    mutable cyc_fragment : float;
    mutable cyc_interp : float;
    mutable cyc_profile : float;
    mutable cyc_overhead : float;
    mutable cyc_flush : float;
    mutable cyc_native_tail : float;
    mutable fragment_instrs : float;
    mutable prebail_instrs : float;
    mutable baseline : float;  (* flush heuristic; valid once [has_baseline] *)
    mutable bail_prev_ovh : float;
    mutable bail_prev_interp : float;
    mutable bail_prev_native : float;
  }

  type t = {
    cfg : config;
    program : Cfg.program;
    lookup : int -> Path.t;  (* path id -> descriptor, for prediction targets *)
    scheme_name : string;
    observe :
      head:Cfg.block_id ->
      arrival:Path.head_kind ->
      path_id:int ->
      n_branches:int ->
      n_blocks:int ->
      int option;
    collect : n_blocks:int -> unit;
    cache : Fragment_cache.t;
    acc : acc;
    (* Per-path memos, by path id, grown as ids appear.  [prefix.(id)] holds
       the path's instruction prefix sums ([prefix.(id).(k)] is the weight
       of its first [k] blocks); [[||]] until the path is first seen, when
       [profile] gets its three per-arrival costs (index [3 * id + code]). *)
    mutable prefix : int array array;
    mutable profile : Float.Array.t;
    mutable instances : int;
    mutable full_hits : int;
    mutable partial_hits : int;
    mutable misses : int;
    mutable native_tail : int;
    mutable bailed : bool;
    (* Flush heuristic. *)
    mutable window_preds : int;
    mutable has_baseline : bool;
    mutable windows_seen : int;
    (* Bail-out heuristic. *)
    mutable bail_streak : int;
    (* Event sampling.  [ev_next] is [max_int] when the sink is null, so
       the disabled cost in [step] is one integer comparison. *)
    mutable ev_next : int;
    mutable ev_seq : int;
    mutable ev_last_upto : int;
  }

  (* [paths] presizes the per-path memos: a replay knows its table, the
     online driver's grows (so the Online = Engine differential also
     tests the growth). *)
  let create_sized ~paths cfg ~program ~lookup =
    let (module S : Scheme.S) = cfg.scheme in
    let state = S.create ~delay:cfg.delay ~program in
    {
      cfg;
      program;
      lookup;
      scheme_name = S.name;
      observe =
        (fun ~head ~arrival ~path_id ~n_branches ~n_blocks ->
           S.observe state ~head ~arrival ~path_id ~n_branches ~n_blocks);
      collect = (fun ~n_blocks -> S.collect state ~n_blocks);
      cache =
        Fragment_cache.create ~capacity:cfg.cache_capacity
          ~eviction:cfg.cache_eviction ();
      acc =
        {
          native = 0.0;
          cyc_fragment = 0.0;
          cyc_interp = 0.0;
          cyc_profile = 0.0;
          cyc_overhead = 0.0;
          cyc_flush = 0.0;
          cyc_native_tail = 0.0;
          fragment_instrs = 0.0;
          prebail_instrs = 0.0;
          baseline = 0.0;
          bail_prev_ovh = 0.0;
          bail_prev_interp = 0.0;
          bail_prev_native = 0.0;
        };
      prefix = Array.make paths [||];
      profile = Float.Array.make (3 * paths) 0.0;
      instances = 0;
      full_hits = 0;
      partial_hits = 0;
      misses = 0;
      native_tail = 0;
      bailed = false;
      window_preds = 0;
      has_baseline = false;
      windows_seen = 0;
      bail_streak = 0;
      ev_next = (if Events.is_null cfg.events then max_int else cfg.events_window);
      ev_seq = 0;
      ev_last_upto = 0;
    }

  let create cfg ~program ~lookup = create_sized ~paths:0 cfg ~program ~lookup

  (* A path's profiling cost for [arrival] sits at [3 * pid] plus the
     arrival byte. *)
  let profile_slot pid arrival =
    (3 * pid) + Char.code (Path.arrival_code arrival)

  (* First sight of a path: grow the memo arrays to cover its id, then
     fill its prefix sums and its profiling cost for each arrival. *)
  let learn st (p : Path.t) =
    let pid = p.Path.id in
    let len = Array.length st.prefix in
    if pid >= len then begin
      let n = max (pid + 1) (max 256 (2 * len)) in
      let prefix = Array.make n [||] in
      Array.blit st.prefix 0 prefix 0 len;
      st.prefix <- prefix;
      let profile = Float.Array.make (3 * n) 0.0 in
      Float.Array.blit st.profile 0 profile 0 (3 * len);
      st.profile <- profile
    end;
    let blocks = p.Path.blocks in
    let sums = Array.make (Array.length blocks + 1) 0 in
    Array.iteri
      (fun i b -> sums.(i + 1) <- sums.(i) + (Cfg.block st.program b).Cfg.weight)
      blocks;
    st.prefix.(pid) <- sums;
    List.iter
      (fun arrival ->
         Float.Array.set st.profile
           (profile_slot pid arrival)
           (st.cfg.scheme_costs.per_instance ~n_branches:p.Path.n_branches ~arrival))
      [ Path.Loop_head; Path.Entry; Path.Continuation ]

  let emit_window st =
    let a = st.acc in
    Events.dynamo_window st.cfg.events ~scheme:st.scheme_name
      ~delay:st.cfg.delay ~seq:st.ev_seq ~upto:st.instances
      ~full_hits:st.full_hits ~partial_hits:st.partial_hits ~misses:st.misses
      ~fragments:(Fragment_cache.inserted_total st.cache)
      ~flushes:(Fragment_cache.flush_count st.cache)
      ~cycles_fragment:a.cyc_fragment ~cycles_interp:a.cyc_interp
      ~cycles_profile:a.cyc_profile ~cycles_overhead:a.cyc_overhead
      ~cycles_flush:a.cyc_flush ~cycles_native:a.native;
    st.ev_seq <- st.ev_seq + 1;
    st.ev_last_upto <- st.instances

  let do_flush st ~reason ~window_preds ~baseline =
    let a = st.acc in
    Fragment_cache.flush st.cache;
    a.cyc_flush <- a.cyc_flush +. st.cfg.cost.Cost_model.flush_cycles;
    Events.dynamo_flush st.cfg.events ~at:st.instances ~reason ~window_preds
      ~baseline ~flushes:(Fragment_cache.flush_count st.cache)
      ~cycles_flush:a.cyc_flush

  let window_boundary st fp =
    let a = st.acc in
    let count = st.window_preds in
    st.window_preds <- 0;
    st.windows_seen <- st.windows_seen + 1;
    (* The very first window is the startup burst (everything hot is being
       predicted); it would poison the baseline, so it is skipped. *)
    if st.windows_seen > 1 then
      if not st.has_baseline then begin
        st.has_baseline <- true;
        a.baseline <- float_of_int count
      end
      else begin
        let b = a.baseline in
        if count >= fp.fp_min && float_of_int count > fp.fp_factor *. (b +. 1.0) then
          do_flush st ~reason:"spike" ~window_preds:count ~baseline:b;
        a.baseline <- (0.7 *. b) +. (0.3 *. float_of_int count)
      end

  let bail_boundary st bp =
    let a = st.acc in
    let ovh_delta = a.cyc_overhead -. a.bail_prev_ovh
    and interp_delta = a.cyc_interp -. a.bail_prev_interp
    and native_delta = a.native -. a.bail_prev_native in
    a.bail_prev_ovh <- a.cyc_overhead;
    a.bail_prev_interp <- a.cyc_interp;
    a.bail_prev_native <- a.native;
    (* Excessive trace formation, or interpretation that keeps dominating
       (the working set never materializes in the cache). *)
    if
      native_delta > 0.0
      && (ovh_delta > bp.bp_overhead_frac *. native_delta
          || interp_delta > bp.bp_interp_frac *. native_delta)
    then st.bail_streak <- st.bail_streak + 1
    else st.bail_streak <- 0;
    if st.bail_streak >= bp.bp_streak then begin
      st.bailed <- true;
      Events.dynamo_bail st.cfg.events ~at:st.instances ~streak:st.bail_streak
        ~overhead_delta:ovh_delta ~interp_delta ~native_delta
    end

  (* Install a fragment for the predicted path [tp], which has none. *)
  let install st (tp : Path.t) =
    let fr = Fragment_cache.fragment_of_path tp in
    (match Fragment_cache.insert st.cache fr with
     | `Inserted | `Duplicate | `Evicted _ -> ()
     | `Full ->
       (* Cache pressure under the reject policy: flush and retry, as
          Dynamo does. *)
       do_flush st ~reason:"pressure" ~window_preds:st.window_preds
         ~baseline:0.0;
       (match Fragment_cache.insert st.cache fr with
        | `Inserted | `Duplicate -> ()
        | `Evicted _ | `Full -> assert false));
    Events.dynamo_install st.cfg.events ~at:st.instances ~path:tp.Path.id
      ~blocks:(Array.length tp.Path.blocks) ~instrs:tp.Path.n_instrs
      ~fragments:(Fragment_cache.inserted_total st.cache)

  let step st ~path:(p : Path.t) ~arrival =
    let c = st.cfg.cost and a = st.acc in
    let pid = p.Path.id in
    let instrs = float_of_int p.Path.n_instrs in
    st.instances <- st.instances + 1;
    a.native <- a.native +. (instrs *. c.Cost_model.native_cycles_per_instr);
    if st.bailed then begin
      st.native_tail <- st.native_tail + 1;
      a.cyc_native_tail <-
        a.cyc_native_tail +. (instrs *. c.Cost_model.native_cycles_per_instr)
    end
    else begin
      a.prebail_instrs <- a.prebail_instrs +. instrs;
      if Fragment_cache.mem st.cache pid then begin
        Fragment_cache.touch st.cache pid;
        st.full_hits <- st.full_hits + 1;
        a.fragment_instrs <- a.fragment_instrs +. instrs;
        a.cyc_fragment <-
          a.cyc_fragment
          +. c.Cost_model.fragment_link_cycles
          +. (instrs *. c.Cost_model.fragment_cycles_per_instr)
      end
      else begin
        (* Miss or partial hit: execution enters the cache at the head and
           follows linked fragments while blocks match; the remainder is
           interpreted and the instance is observed by the scheme.  Matched
           blocks are the executed path's own, so its prefix sums price
           the longest match. *)
        if pid >= Array.length st.prefix || Array.length st.prefix.(pid) = 0 then
          learn st p;
        let matched =
          float_of_int
            st.prefix.(pid).(Fragment_cache.longest_prefix st.cache p.Path.blocks)
        in
        if matched > 0.0 then begin
          st.partial_hits <- st.partial_hits + 1;
          a.fragment_instrs <- a.fragment_instrs +. matched;
          a.cyc_fragment <-
            a.cyc_fragment
            +. c.Cost_model.fragment_link_cycles
            +. (matched *. c.Cost_model.fragment_cycles_per_instr);
          a.cyc_interp <-
            a.cyc_interp
            +. ((instrs -. matched) *. c.Cost_model.interp_cycles_per_instr)
        end
        else begin
          st.misses <- st.misses + 1;
          a.cyc_interp <-
            a.cyc_interp +. (instrs *. c.Cost_model.interp_cycles_per_instr)
        end;
        a.cyc_profile <-
          a.cyc_profile
          +. Float.Array.get st.profile (profile_slot pid arrival);
        match
          st.observe ~head:(Path.head p) ~arrival ~path_id:pid
            ~n_branches:p.Path.n_branches
            ~n_blocks:(Array.length p.Path.blocks)
        with
        | Some target when not (Fragment_cache.mem st.cache target) ->
          let tp = st.lookup target in
          st.collect ~n_blocks:(Array.length tp.Path.blocks);
          a.cyc_overhead <-
            a.cyc_overhead
            +. st.cfg.scheme_costs.per_prediction
                 ~n_blocks:(Array.length tp.Path.blocks)
                 ~n_instrs:tp.Path.n_instrs;
          install st tp;
          st.window_preds <- st.window_preds + 1
        | Some _ | None -> ()
      end
    end;
    if st.instances >= st.ev_next then begin
      emit_window st;
      st.ev_next <- st.ev_next + st.cfg.events_window
    end;
    (match st.cfg.flush_policy with
     | Some fp -> if st.instances mod fp.fp_window = 0 then window_boundary st fp
     | None -> ());
    match st.cfg.bail_policy with
    | Some bp when (not st.bailed) && st.instances mod bp.bp_window = 0 ->
      bail_boundary st bp
    | Some _ | None -> ()

  let finalize st =
    let a = st.acc in
    (* The last (possibly short) window always gets a sample, so a
       consumer summing the final event matches the result record. *)
    if
      (not (Events.is_null st.cfg.events))
      && (st.ev_last_upto < st.instances || st.ev_seq = 0)
    then emit_window st;
    let dynamo =
      a.cyc_fragment +. a.cyc_interp +. a.cyc_profile +. a.cyc_overhead
      +. a.cyc_flush +. a.cyc_native_tail
    in
    {
      r_scheme = st.scheme_name;
      r_delay = st.cfg.delay;
      r_native_cycles = a.native;
      r_dynamo_cycles = dynamo;
      r_speedup_pct =
        (if dynamo > 0.0 then ((a.native /. dynamo) -. 1.0) *. 100.0 else 0.0);
      r_bailed = st.bailed;
      r_fragments = Fragment_cache.inserted_total st.cache;
      r_flushes = Fragment_cache.flush_count st.cache;
      r_full_hits = st.full_hits;
      r_partial_hits = st.partial_hits;
      r_misses = st.misses;
      r_native_tail = st.native_tail;
      r_cycles_fragment = a.cyc_fragment;
      r_cycles_interp = a.cyc_interp;
      r_cycles_profile = a.cyc_profile;
      r_cycles_overhead = a.cyc_overhead;
      r_cycles_flush = a.cyc_flush;
      r_cache_coverage_pct =
        Hotpath_util.Stats.pct a.fragment_instrs a.prebail_instrs;
    }
end

let run cfg (r : Recorder.t) =
  let paths = Path_table.paths r.Recorder.table in
  let st =
    Stepper.create_sized ~paths:(Array.length paths) cfg ~program:r.Recorder.program
      ~lookup:(fun id -> paths.(id))
  in
  let instances = r.Recorder.instances in
  for i = 0 to Array.length instances - 1 do
    Stepper.step st ~path:paths.(instances.(i)) ~arrival:(Recorder.arrival r i)
  done;
  Stepper.finalize st

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s delay=%d: speedup=%+.1f%%%s@,\
     cycles: native=%.3e dynamo=%.3e (frag=%.3e interp=%.3e prof=%.3e ovh=%.3e \
     flush=%.3e)@,\
     hits: full=%d partial=%d miss=%d native-tail=%d fragments=%d flushes=%d \
     coverage=%.1f%%@]"
    r.r_scheme r.r_delay r.r_speedup_pct
    (if r.r_bailed then " [BAILED OUT]" else "")
    r.r_native_cycles r.r_dynamo_cycles r.r_cycles_fragment r.r_cycles_interp
    r.r_cycles_profile r.r_cycles_overhead r.r_cycles_flush r.r_full_hits
    r.r_partial_hits r.r_misses r.r_native_tail r.r_fragments r.r_flushes
    r.r_cache_coverage_pct
