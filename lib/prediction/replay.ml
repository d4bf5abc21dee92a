module Recorder = Hotpath_trace.Recorder
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Batch = Hotpath_trace.Batch
module Cfg = Hotpath_cfg.Cfg
module Vec = Hotpath_util.Vec
module Events = Hotpath_util.Events
module Pool = Hotpath_util.Pool

(* The shared per-lane replay vocabulary — prediction/outcome records,
   events configuration, the window sampler — lives in [Session], whose
   online push API is the primitive this batch engine drives.  The
   equations re-export the records so existing field accesses compile
   against either module. *)

type prediction = Session.prediction = { target : int; at_instance : int }

type outcome = Session.outcome = {
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

type events = Session.events = {
  ev_sink : Events.sink;
  ev_window : int;
  ev_is_hot : (int -> bool) option;
}

let default_events_window = Session.default_events_window

let events = Session.events

module Sampler = Session.Sampler

(* Logical instance-stream reads performed by [run]/[run_many], for the
   one-pass guarantee: multiplexing k delays must read the trace once,
   not k times.  Atomic because experiment fan-out replays from several
   domains.  The count is per logical traversal and independent of
   [?jobs]: a chunk-sharded run still consumes the stream once (phase A
   reads each chunk exactly once; lane groups replay cache-resident
   chunk buffers, not the stream). *)
let reads = Atomic.make 0

let instance_reads () = Atomic.get reads

let reset_instance_reads () = Atomic.set reads 0

let live = Session.live

(* ------------------------------------------------------------------ *)
(* Lane plumbing                                                       *)
(* ------------------------------------------------------------------ *)

(* A lane runner replays the instance stream for a subset of the delay
   lanes, accumulating path frequencies into [freq] along the way and
   sampling through [ev]'s sink.  Both the generic functor below and the
   monomorphized kernels produce one; the sharding driver [drive] is the
   single owner of chunking, domain fan-out, event reconciliation, and
   outcome assembly. *)
type lane_result = {
  lr_predictions : prediction array;
  lr_predicted_at : int array;
  lr_captured : int array;
  lr_profiled : int;
  lr_captured_total : int;
  lr_counter_space : int;
  lr_profiling_ops : int;
  lr_collection_ops : int;
}

(* A chunk walker owns the full replay state for its lanes and replays
   instance-stream chunks [lo, hi) in ascending order.  All state — lane
   counters, predicted-at marks, sampler cursors — carries across calls,
   so walking [0, n) in one call or in many contiguous chunks is the
   same computation; the chunk boundary is pure loop tiling here.
   [cw_finish] emits the final event samples and packages the results.

   [cw_walk_batch], when present, is the same walk over a pre-decoded
   dense {!Batch.t} whose instance 0 sits at global index [base]: the
   driver decodes each chunk once (ids, widened arrival codes, gathered
   per-path descriptors) and every lane group replays the cache-resident
   batch instead of re-reading the recording — the compressed-chunk
   trick the NET/path-profile fast engines use, generalized to walkers
   whose scheme state is opaque.  Walkers without batch support (the
   monomorphized kernels, which either have a fast engine or flatten
   their own state) leave it [None]. *)
type chunk_walker = {
  cw_walk : lo:int -> hi:int -> unit;
  cw_walk_batch : (Batch.t -> base:int -> unit) option;
  cw_finish : unit -> lane_result array;
}

(* Built-in kernels whose per-lane state is dense and seam-mergeable get
   the compressed stream-sharded engine below.  [Last_executed_tail] is
   the exception: at a trip it predicts a path other than the tripping
   one, and captured accounting then needs that other path's occurrence
   count at the trip index, which the compressed phase-A stream does not
   carry — it replays through the chunked per-instance walker instead. *)
type fast = Fast_net_rearm | Fast_net_once | Fast_pp

type lane_runner = {
  lr_scheme : string;
  lr_make :
    ev:events option ->
    lanes:int array ->
    freq:int array ->
    Recorder.t ->
    chunk_walker;
  lr_fast : fast option;
}

(* Contiguous lane slices, sizes differing by at most one. *)
let shard_slices lanes shards =
  let k = Array.length lanes in
  let base = k / shards and extra = k mod shards in
  let off = ref 0 in
  Array.init shards (fun s ->
      let len = base + if s < extra then 1 else 0 in
      let slice = Array.sub lanes !off len in
      off := !off + len;
      slice)

(* Every shard's sampler emits, per window round, one line per lane in
   lane order, and all lanes across all shards hit the same window
   boundaries (same trace length, same window).  Shards hold contiguous
   lane slices, so the serial stream — round-major, lane-minor over the
   global lane order — is recovered by concatenating each round's
   per-shard groups in shard order. *)
let merge_event_lines sink slices bufs =
  let rounds =
    let k0 = Array.length slices.(0) in
    if k0 = 0 then 0 else Vec.length bufs.(0) / k0
  in
  Array.iteri
    (fun s buf ->
       if Vec.length buf <> rounds * Array.length slices.(s) then
         invalid_arg "Replay: parallel event streams out of step")
    bufs;
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun s buf ->
         let k = Array.length slices.(s) in
         for j = 0 to k - 1 do
           Events.raw sink (Vec.get buf ((round * k) + j))
         done)
      bufs
  done

(* ------------------------------------------------------------------ *)
(* Stream-sharded fast engines                                         *)
(* ------------------------------------------------------------------ *)

(* [drive] used to shard the *delay lanes*: each of [min jobs k] domains
   re-walked the entire trace for a contiguous lane slice, so jobs > 1
   multiplied total work by the shard count and wall time *grew* with
   jobs whenever domains outnumbered cores (BENCH_replay.json recorded
   the net kernel falling from 43.3M instances/s at jobs=1 to 31.7M at
   jobs=4).  The engines below shard the *instance stream* instead:

   - Phase A walks the stream exactly once, compressing it — for NET,
     into the recording-level loop index ([Recorder.loop_index]: the
     loop-head event stream as trace index + occurrence count of the
     event's own path, grouped into maximal same-path runs, built once
     per recording and cached); for path-profile, into per-chunk
     occurrence-threshold trigger buffers.  Phase A is the only
     consumer of the raw trace and the only writer of [freq] (for NET,
     [freq] is a blit of the index's final counts).
   - Phase C replays every delay lane against the compressed buffers:
     O(1) per run per lane for NET (a run either skips — its path is
     already predicted — or advances one head counter by the run length
     with at most one trip inside), O(1) per trigger for path-profile.
     Lanes are independent, so phase C fans contiguous lane groups over
     pool workers, each group replaying the same cache-resident buffers.

   The chunk-seam carry protocol is what makes chunking invisible: head
   counters, predicted-at marks and occurrence bases live in per-lane
   arrays that persist across chunks, and a run split by a chunk
   boundary is simply two shorter runs advancing the same counter — the
   automaton never relies on run maximality (property-tested
   bit-identical to serial for adversarial chunk sizes, 1 included).

   Captured flow needs no per-instance work at all: at an accepted
   prediction of [target] at instance [i] the engine stores
   occ(target, <= i) as the capture base, and at the end
   captured(target) = freq(target) - base.  This closed form is exact
   because a predicted path's later instances are captured by
   definition, and for these kernels the predicted path is the tripping
   path itself, whose occurrence count phase A already carries.

   Per-chunk buffers are reused and sized to the chunk, so phase C reads
   cache-resident data where the lane-sharded loops streamed the whole
   trace from memory once per shard — which is why jobs > 1 beats the
   fused serial kernel even on a single core: it does strictly less
   work per lane, not merely the same work elsewhere. *)
module Fast = struct
  let lane_groups k workers =
    shard_slices (Array.init k Fun.id) (max 1 (min workers k))

  (* Fan phase C over lane groups.  The per-chunk pool teardown costs a
     domain spawn per worker per chunk — noise at the default chunk size
     — and the single-group case (1-core machines included) runs inline
     with no domain machinery at all. *)
  let run_groups groups process =
    match Array.length groups with
    | 1 -> process groups.(0)
    | ng -> ignore (Pool.map_array ~jobs:ng process groups)

  let net variant ~lanes ~chunk:_ ~workers ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let n_blocks = Array.length r.Recorder.program.Cfg.blocks in
    let d = Recorder.descriptors r in
    let heads = d.Recorder.d_heads and blocks = d.Recorder.d_blocks in
    let n = Array.length r.Recorder.instances in
    let v_once = variant = Fast_net_once in
    (* Phase A is the recording-level loop index: the loop-head event
       stream grouped into maximal same-path runs, plus final
       frequencies — built once per recording ([Recorder.loop_index]
       caches it) and shared by every lane group, every delay set, and
       every subsequent replay of the same recording.  A maximal run is
       just the chunk-truncated runs of the old per-chunk phase A
       merged: splitting a run anywhere yields two shorter runs
       advancing the same carried counter, so phase C is bit-identical
       on either form and the chunk loop disappears entirely. *)
    let li = Recorder.loop_index r in
    let ev_idx = li.Recorder.li_idx in
    let ev_occ = li.Recorder.li_occ in
    let run_pid = li.Recorder.li_run_pid in
    let run_off = li.Recorder.li_run_off in
    let run_len = li.Recorder.li_run_len in
    Array.blit li.Recorder.li_freq 0 freq 0 n_paths;
    let nr = Array.length run_pid in
    (* Per-lane state. *)
    let pa = Array.init k (fun _ -> Array.make n_paths max_int) in
    let cap_base = Array.init k (fun _ -> Array.make n_paths 0) in
    let counts = Array.init k (fun _ -> Array.make n_blocks (-1)) in
    let retired =
      Array.init k (fun _ -> if v_once then Array.make n_blocks false else [||])
    in
    let seen = Array.make k 0 in
    let ops = Array.make k 0 in
    let coll = Array.make k 0 in
    let preds = Array.init k (fun _ -> Vec.create ()) in
    let groups = lane_groups k workers in
    (* One streaming pass over the run arrays, lanes inner.  Run-outer
       beats lane-outer here: the run arrays are tens of megabytes on a
       full-scale trace and stream through exactly once this way (each
       lane pass of the lane-outer shape would re-stream them, and
       memory bandwidth — not the per-run arithmetic — is the binding
       constraint), while the per-lane counter state is small enough to
       stay cache-resident across the inner loop. *)
    let process_group g =
      (* Hot closure captures into locals (see Net_kernel.make_walker). *)
      let run_pid = Sys.opaque_identity run_pid
      and run_off = Sys.opaque_identity run_off
      and run_len = Sys.opaque_identity run_len
      and ev_idx = Sys.opaque_identity ev_idx
      and ev_occ = Sys.opaque_identity ev_occ
      and heads = Sys.opaque_identity heads
      and blocks = Sys.opaque_identity blocks
      and lanes = Sys.opaque_identity lanes
      and pa = Sys.opaque_identity pa
      and cap_base = Sys.opaque_identity cap_base
      and counts = Sys.opaque_identity counts
      and retired = Sys.opaque_identity retired
      and seen = Sys.opaque_identity seen
      and ops = Sys.opaque_identity ops
      and coll = Sys.opaque_identity coll
      and preds = Sys.opaque_identity preds
      and v_once = Sys.opaque_identity v_once in
      let gk = Array.length g in
      for ri = 0 to nr - 1 do
        let pid = Array.unsafe_get run_pid ri in
        let off = Array.unsafe_get run_off ri in
        let len = Array.unsafe_get run_len ri in
        let h = Array.unsafe_get heads pid in
        for j = 0 to gk - 1 do
          let l = Array.unsafe_get g j in
          let pal = Array.unsafe_get pa l in
          (* Predicted path => the whole run is captured flow: skip. *)
          if Array.unsafe_get pal pid = max_int then
            if not (v_once && Array.unsafe_get (Array.unsafe_get retired l) h)
            then begin
              let cl = Array.unsafe_get counts l in
              let c0 = Array.unsafe_get cl h in
              let c0 =
                if c0 < 0 then begin
                  Array.unsafe_set seen l (Array.unsafe_get seen l + 1);
                  0
                end
                else c0
              in
              let delay = Array.unsafe_get lanes l in
              if c0 + len < delay then begin
                Array.unsafe_set cl h (c0 + len);
                Array.unsafe_set ops l (Array.unsafe_get ops l + len)
              end
              else begin
                (* The counter trips at the run's [delay - c0]-th event;
                   everything after that event is captured flow of the
                   now-predicted path, so the run finishes in O(1). *)
                let e = delay - c0 in
                Array.unsafe_set ops l (Array.unsafe_get ops l + e);
                Array.unsafe_set cl h 0;
                if v_once then
                  Array.unsafe_set (Array.unsafe_get retired l) h true;
                let at = Array.unsafe_get ev_idx (off + e - 1) in
                Array.unsafe_set pal pid at;
                Array.unsafe_set (Array.unsafe_get cap_base l) pid
                  (Array.unsafe_get ev_occ (off + e - 1));
                Array.unsafe_set coll l
                  (Array.unsafe_get coll l + Array.unsafe_get blocks pid);
                Vec.push
                  (Array.unsafe_get preds l)
                  { target = pid; at_instance = at }
              end
            end
        done
      done
    in
    process_group |> run_groups groups;
    Array.init k (fun l ->
        let captured = Array.make n_paths 0 in
        let pal = pa.(l) and cb = cap_base.(l) in
        let total = ref 0 in
        for pid = 0 to n_paths - 1 do
          if Array.unsafe_get pal pid <> max_int then begin
            let c = Array.unsafe_get freq pid - Array.unsafe_get cb pid in
            Array.unsafe_set captured pid c;
            total := !total + c
          end
        done;
        {
          lr_predictions = Vec.to_array preds.(l);
          lr_predicted_at = pal;
          lr_captured = captured;
          lr_profiled = n - !total;
          lr_captured_total = !total;
          lr_counter_space = seen.(l);
          lr_profiling_ops = ops.(l);
          lr_collection_ops = coll.(l);
        })

  (* Path-profile predicts a path at exactly its [delay]-th profiled
     occurrence (its first [min freq delay] occurrences are profiled,
     the rest captured), so phase A only records threshold crossings —
     (path, occurrence, index) triggers — and everything else is closed
     form over the final [freq]. *)
  let path_profile ~lanes ~chunk ~workers ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let d = Recorder.descriptors r in
    let branches = d.Recorder.d_branches in
    let instances = r.Recorder.instances in
    let n = Array.length instances in
    let csz = max 1 (min chunk n) in
    (* Occurrence counts never exceed n, so delays beyond n can never
       trigger and need no slot in the membership table. *)
    let cap = min (Array.fold_left max 1 lanes) n in
    let is_delay = Array.make (cap + 1) false in
    Array.iter (fun dl -> if dl >= 1 && dl <= cap then is_delay.(dl) <- true) lanes;
    let tr_pid = Array.make csz 0 in
    let tr_occ = Array.make csz 0 in
    let tr_idx = Array.make csz 0 in
    let pa = Array.init k (fun _ -> Array.make n_paths max_int) in
    let preds = Array.init k (fun _ -> Vec.create ()) in
    let groups = lane_groups k workers in
    let n_triggers = ref 0 in
    let process_group g =
      (* Hot closure captures into locals (see Net_kernel.make_walker). *)
      let tr_pid = Sys.opaque_identity tr_pid
      and tr_occ = Sys.opaque_identity tr_occ
      and tr_idx = Sys.opaque_identity tr_idx in
      let nt = !n_triggers in
      Array.iter
        (fun l ->
           let delay = lanes.(l) in
           let pal = pa.(l) and pr = preds.(l) in
           for t = 0 to nt - 1 do
             if Array.unsafe_get tr_occ t = delay then begin
               let pid = Array.unsafe_get tr_pid t in
               let at = Array.unsafe_get tr_idx t in
               Array.unsafe_set pal pid at;
               Vec.push pr { target = pid; at_instance = at }
             end
           done)
        g
    in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + csz) in
      let nt = ref 0 in
      for i = !lo to hi - 1 do
        let pid = Array.unsafe_get instances i in
        let f = Array.unsafe_get freq pid + 1 in
        Array.unsafe_set freq pid f;
        if f <= cap && Array.unsafe_get is_delay f then begin
          let t = !nt in
          Array.unsafe_set tr_pid t pid;
          Array.unsafe_set tr_occ t f;
          Array.unsafe_set tr_idx t i;
          nt := t + 1
        end
      done;
      n_triggers := !nt;
      process_group |> run_groups groups;
      lo := hi
    done;
    let seen = ref 0 in
    for pid = 0 to n_paths - 1 do
      if freq.(pid) > 0 then incr seen
    done;
    let seen = !seen in
    Array.init k (fun l ->
        let delay = lanes.(l) in
        let captured = Array.make n_paths 0 in
        let pal = pa.(l) in
        let total = ref 0 and ops = ref 0 in
        for pid = 0 to n_paths - 1 do
          let f = Array.unsafe_get freq pid in
          let profiled_occ = if f < delay then f else delay in
          ops := !ops + (profiled_occ * (Array.unsafe_get branches pid + 1));
          if Array.unsafe_get pal pid <> max_int then begin
            let c = f - delay in
            Array.unsafe_set captured pid c;
            total := !total + c
          end
        done;
        {
          lr_predictions = Vec.to_array preds.(l);
          lr_predicted_at = pal;
          lr_captured = captured;
          lr_profiled = n - !total;
          lr_captured_total = !total;
          lr_counter_space = seen;
          lr_profiling_ops = !ops;
          lr_collection_ops = 0;
        })
end

(* Chunks large enough to amortize per-chunk work, small enough that the
   phase-A buffers (a few machine words per instance) stay L2-resident
   while every lane group replays them. *)
let default_chunk = 65_536

let drive ?events:ev ?(jobs = 1) ?(chunk = default_chunk)
    (runner : lane_runner) ~delays (r : Recorder.t) =
  if jobs < 1 then invalid_arg "Replay.run_many: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Replay.run_many: chunk must be >= 1";
  let ev = live ev in
  match Array.of_list delays with
  | [||] -> []
  | lanes ->
    let k = Array.length lanes in
    let n = Array.length r.Recorder.instances in
    let n_paths = Recorder.num_paths r in
    let assemble lrs freq =
      List.init k (fun l ->
          let lr = lrs.(l) in
          {
            scheme_name = runner.lr_scheme;
            delay = lanes.(l);
            total_instances = n;
            predictions = lr.lr_predictions;
            predicted_at = lr.lr_predicted_at;
            freq = (if l = 0 then freq else Array.copy freq);
            captured = lr.lr_captured;
            profiled_instances = lr.lr_profiled;
            captured_instances = lr.lr_captured_total;
            counter_space = lr.lr_counter_space;
            profiling_ops = lr.lr_profiling_ops;
            collection_ops = lr.lr_collection_ops;
          })
    in
    (* One logical traversal of the stream regardless of [jobs]. *)
    ignore (Atomic.fetch_and_add reads n);
    (* Fan-out width: the [jobs] ask clamped to the machine's domain
       budget and the lane count — never oversubscribed.  Results are
       worker-count independent (lanes never interact), so clamping is
       pure scheduling. *)
    let workers = min (Pool.effective_workers ~jobs) k in
    let serial_walk w =
      w.cw_walk ~lo:0 ~hi:n;
      w.cw_finish ()
    in
    if jobs = 1 then begin
      let freq = Array.make n_paths 0 in
      assemble (serial_walk (runner.lr_make ~ev ~lanes ~freq r)) freq
    end
    else begin
      match runner.lr_fast with
      | Some fast when ev = None ->
        let freq = Array.make n_paths 0 in
        let lrs =
          match fast with
          | Fast_net_rearm | Fast_net_once ->
            Fast.net fast ~lanes ~chunk ~workers ~freq r
          | Fast_pp -> Fast.path_profile ~lanes ~chunk ~workers ~freq r
        in
        assemble lrs freq
      | _ when workers <= 1 ->
        (* One worker: a single walker over all lanes, chunk-tiled so
           the seam path stays the one exercised at any job count. *)
        let freq = Array.make n_paths 0 in
        let w = runner.lr_make ~ev ~lanes ~freq r in
        let lo = ref 0 in
        while !lo < n do
          let hi = min n (!lo + chunk) in
          w.cw_walk ~lo:!lo ~hi;
          lo := hi
        done;
        assemble (w.cw_finish ()) freq
      | _ ->
        (* Per-instance walkers (events enabled, Last_executed_tail, or
           a non-built-in scheme): scheme state is opaque or the sampler
           needs per-instance order, so each lane group replays the
           chunk-tiled stream itself.  Sampling goes to a per-group line
           buffer, merged after the join; each group accumulates its own
           (identical) freq. *)
        let slices = shard_slices lanes workers in
        let bufs = Array.map (fun _ -> Vec.create ()) slices in
        let freqs = Array.map (fun _ -> Array.make n_paths 0) slices in
        let walkers =
          Array.mapi
            (fun s slice ->
               let ev_s =
                 Option.map
                   (fun e ->
                      { e with ev_sink = Events.of_fn (Vec.push bufs.(s)) })
                   ev
               in
               runner.lr_make ~ev:ev_s ~lanes:slice ~freq:freqs.(s) r)
            slices
        in
        let lrs =
          if Array.for_all (fun w -> w.cw_walk_batch <> None) walkers then begin
            (* Compressed-chunk fan-out for opaque-state walkers: decode
               each chunk once into a shared dense batch (ids, widened
               arrival codes, gathered descriptors), then let every lane
               group replay the cache-resident batch.  The groups read
               the batch concurrently and never write it; the driver
               refills it only after the fan-out joins. *)
            let d = Recorder.descriptors r in
            let dh = d.Recorder.d_heads
            and dbr = d.Recorder.d_branches
            and dbl = d.Recorder.d_blocks in
            let instances = r.Recorder.instances in
            let arrivals = r.Recorder.arrivals in
            let batch = Batch.create ~capacity:(max 1 (min chunk n)) () in
            let walks =
              Array.map (fun w -> Option.get w.cw_walk_batch) walkers
            in
            let lo = ref 0 in
            while !lo < n do
              let hi = min n (!lo + chunk) in
              let m = hi - !lo in
              Batch.ensure batch m;
              Batch.ensure_descriptors batch m;
              let ids = batch.Batch.ids
              and arrs = batch.Batch.arrs
              and bh = batch.Batch.heads
              and bbr = batch.Batch.branches
              and bbl = batch.Batch.blocks in
              let base = !lo in
              for j = 0 to m - 1 do
                let pid = Array.unsafe_get instances (base + j) in
                Array.unsafe_set ids j pid;
                Array.unsafe_set arrs j
                  (Char.code (Bytes.unsafe_get arrivals (base + j)));
                Array.unsafe_set bh j (Array.unsafe_get dh pid);
                Array.unsafe_set bbr j (Array.unsafe_get dbr pid);
                Array.unsafe_set bbl j (Array.unsafe_get dbl pid)
              done;
              Batch.set_length batch m;
              ignore
                (Pool.map_array ~jobs:workers (fun wb -> wb batch ~base) walks);
              lo := hi
            done;
            Array.map (fun w -> w.cw_finish ()) walkers
          end
          else
            Pool.map_array ~jobs:workers
              (fun w ->
                 let lo = ref 0 in
                 while !lo < n do
                   let hi = min n (!lo + chunk) in
                   w.cw_walk ~lo:!lo ~hi;
                   lo := hi
                 done;
                 w.cw_finish ())
              walkers
        in
        Option.iter (fun e -> merge_event_lines e.ev_sink slices bufs) ev;
        assemble (Array.concat (Array.to_list lrs)) freqs.(0)
    end

(* ------------------------------------------------------------------ *)
(* Generic kernel: one compilation of the multiplexed loop per scheme   *)
(* ------------------------------------------------------------------ *)

module Make (S : Scheme.S) = struct
  let make_walker ~ev ~lanes ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let d = Recorder.descriptors r in
    let heads = d.Recorder.d_heads
    and branches = d.Recorder.d_branches
    and blocks = d.Recorder.d_blocks in
    let arrivals = Recorder.arrival_view r in
    let states =
      Array.map (fun delay -> S.create ~delay ~program:r.Recorder.program) lanes
    in
    let predicted_at = Array.init k (fun _ -> Array.make n_paths max_int) in
    let captured = Array.init k (fun _ -> Array.make n_paths 0) in
    let predictions = Array.init k (fun _ -> Vec.create ()) in
    let profiled = Array.make k 0 in
    let captured_total = Array.make k 0 in
    let instances = r.Recorder.instances in
    let n = Array.length instances in
    let sampler =
      Option.map (fun e -> Sampler.create e ~scheme:S.name ~delays:lanes) ev
    in
    let next_sample =
      ref (match ev with None -> max_int | Some e -> e.ev_window)
    in
    let sample_lanes f upto =
      match sampler with
      | None -> ()
      | Some sm ->
        for l = 0 to k - 1 do
          f sm l ~upto ~n_paths ~captured_arr:captured.(l)
            ~predictions:(Vec.length predictions.(l))
            ~profiled:profiled.(l) ~captured_total:captured_total.(l)
            ~counter_space:(S.counter_space states.(l))
            ~profiling_ops:(S.profiling_ops states.(l))
            ~collection_ops:(S.collection_ops states.(l))
        done
    in
    let walk ~lo ~hi =
      (* Hoist the hot closure captures into locals ([opaque_identity]
         keeps the simplifier from substituting the aliases back into
         per-iteration env reads — worth ~15% on this loop). *)
      let instances = Sys.opaque_identity instances
      and arrivals = Sys.opaque_identity arrivals
      and heads = Sys.opaque_identity heads
      and branches = Sys.opaque_identity branches
      and blocks = Sys.opaque_identity blocks
      and freq = Sys.opaque_identity freq
      and states = Sys.opaque_identity states
      and predicted_at = Sys.opaque_identity predicted_at
      and captured = Sys.opaque_identity captured
      and predictions = Sys.opaque_identity predictions
      and profiled = Sys.opaque_identity profiled
      and captured_total = Sys.opaque_identity captured_total
      and next_sample = Sys.opaque_identity next_sample
      and k = Sys.opaque_identity k in
      for i = lo to hi - 1 do
        let pid = instances.(i) in
        freq.(pid) <- freq.(pid) + 1;
        let head = heads.(pid)
        and n_branches = branches.(pid)
        and n_blocks = blocks.(pid)
        and arrival = arrivals.(i) in
        for l = 0 to k - 1 do
          let pa = predicted_at.(l) in
          if pa.(pid) < i then begin
            let cap = captured.(l) in
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
              Vec.push predictions.(l) { target; at_instance = i }
            | Some _ | None -> ()
          end
        done;
        if i + 1 >= !next_sample then begin
          sample_lanes Sampler.sample (i + 1);
          next_sample := !next_sample + (Option.get ev).ev_window
        end
      done
    in
    let walk_batch (b : Batch.t) ~base =
      (* [walk] over the driver's pre-decoded batch: ids, arrival codes,
         and the per-path descriptors arrive as dense per-instance
         arrays, so the hot loop reads sequentially instead of chasing
         [heads]/[branches]/[blocks] through a path-id indirection per
         instance.  [base + j] is the instance's global index — sampler
         windows and prediction indices stay stream-absolute.  The batch
         is the driver's scratch: read-only here, never retained. *)
      let ids = Sys.opaque_identity b.Batch.ids
      and arrs = Sys.opaque_identity b.Batch.arrs
      and b_heads = Sys.opaque_identity b.Batch.heads
      and b_branches = Sys.opaque_identity b.Batch.branches
      and b_blocks = Sys.opaque_identity b.Batch.blocks
      and m = Sys.opaque_identity (Batch.length b)
      and blocks = Sys.opaque_identity blocks
      and freq = Sys.opaque_identity freq
      and states = Sys.opaque_identity states
      and predicted_at = Sys.opaque_identity predicted_at
      and captured = Sys.opaque_identity captured
      and predictions = Sys.opaque_identity predictions
      and profiled = Sys.opaque_identity profiled
      and captured_total = Sys.opaque_identity captured_total
      and next_sample = Sys.opaque_identity next_sample
      and k = Sys.opaque_identity k in
      for j = 0 to m - 1 do
        let i = base + j in
        let pid = ids.(j) in
        freq.(pid) <- freq.(pid) + 1;
        let head = b_heads.(j)
        and n_branches = b_branches.(j)
        and n_blocks = b_blocks.(j)
        and arrival = Batch.kind_of_code arrs.(j) in
        for l = 0 to k - 1 do
          let pa = predicted_at.(l) in
          if pa.(pid) < i then begin
            let cap = captured.(l) in
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
              Vec.push predictions.(l) { target; at_instance = i }
            | Some _ | None -> ()
          end
        done;
        if i + 1 >= !next_sample then begin
          sample_lanes Sampler.sample (i + 1);
          next_sample := !next_sample + (Option.get ev).ev_window
        end
      done
    in
    let finish () =
      sample_lanes Sampler.final n;
      Array.init k (fun l ->
          {
            lr_predictions = Vec.to_array predictions.(l);
            lr_predicted_at = predicted_at.(l);
            lr_captured = captured.(l);
            lr_profiled = profiled.(l);
            lr_captured_total = captured_total.(l);
            lr_counter_space = S.counter_space states.(l);
            lr_profiling_ops = S.profiling_ops states.(l);
            lr_collection_ops = S.collection_ops states.(l);
          })
    in
    { cw_walk = walk; cw_walk_batch = Some walk_batch; cw_finish = finish }

  let runner = { lr_scheme = S.name; lr_make = make_walker; lr_fast = None }

  let run_many ?events ?jobs ?chunk ~delays r =
    drive ?events ?jobs ?chunk runner ~delays r

  let run ?events ~delay r =
    match run_many ?events ~delays:[ delay ] r with
    | [ o ] -> o
    | _ -> assert false
end

(* ------------------------------------------------------------------ *)
(* Monomorphized kernels for the built-in schemes                      *)
(* ------------------------------------------------------------------ *)

(* The generic loop pays one module-indirected call per profiled
   instance per lane, and the built-in schemes keep their state in
   hashtables keyed by dense integer ids (block ids for NET, path ids
   for path-profile).  The kernels inline the scheme logic into the loop
   and flatten each hashtable into a plain array over those ids —
   behaviourally identical (property-tested byte-identical against the
   generic loop), with no call, no hashing, and no option allocation on
   the per-instance path.  Without flambda this data-structure
   specialization, not functor inlining, is where the kernel speedup
   comes from.

   The [Array.unsafe_*] accesses rely on recording-time validation:
   every instance id is a table path and every path head a program
   block, so [pid < n_paths] and [head < n_blocks] always hold. *)

module Net_kernel = struct
  type variant = Rearm | Once | Prev

  (* Net.state with the head-keyed hashtables flattened: counts.(h) < 0
     means "no counter yet" (hashtable absence), last_tail.(h) < 0 "no
     previous tail".  [seen] tracks counters ever allocated — NET's
     counter space. *)
  type lane = {
    delay : int;
    counts : int array;
    mutable seen : int;
    retired : bool array;
    last_tail : int array;
    mutable ops : int;
    mutable collection : int;
  }

  let make_lane variant ~n_blocks ~delay =
    {
      delay;
      counts = Array.make n_blocks (-1);
      seen = 0;
      retired = (if variant = Once then Array.make n_blocks false else [||]);
      last_tail = (if variant = Prev then Array.make n_blocks (-1) else [||]);
      ops = 0;
      collection = 0;
    }

  let make_walker variant scheme ~ev ~lanes ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let n_blocks = Array.length r.Recorder.program.Cfg.blocks in
    let d = Recorder.descriptors r in
    let heads = d.Recorder.d_heads and blocks = d.Recorder.d_blocks in
    let arrivals = Recorder.arrival_view r in
    let states =
      Array.map (fun delay -> make_lane variant ~n_blocks ~delay) lanes
    in
    let v_once = variant = Once and v_prev = variant = Prev in
    let predicted_at = Array.init k (fun _ -> Array.make n_paths max_int) in
    let captured = Array.init k (fun _ -> Array.make n_paths 0) in
    let predictions = Array.init k (fun _ -> Vec.create ()) in
    let profiled = Array.make k 0 in
    let captured_total = Array.make k 0 in
    let instances = r.Recorder.instances in
    let n = Array.length instances in
    let sampler =
      Option.map (fun e -> Sampler.create e ~scheme ~delays:lanes) ev
    in
    let next_sample =
      ref (match ev with None -> max_int | Some e -> e.ev_window)
    in
    let sample_lanes f upto =
      match sampler with
      | None -> ()
      | Some sm ->
        for l = 0 to k - 1 do
          let st = states.(l) in
          f sm l ~upto ~n_paths ~captured_arr:captured.(l)
            ~predictions:(Vec.length predictions.(l))
            ~profiled:profiled.(l) ~captured_total:captured_total.(l)
            ~counter_space:st.seen ~profiling_ops:st.ops
            ~collection_ops:st.collection
        done
    in
    let walk ~lo ~hi =
      (* Hoist the hot closure captures into locals: the walk body lives
         in a closure now, and reloading env fields per iteration costs
         ~15% on this loop.  [opaque_identity] stops the simplifier from
         substituting the aliases back into env reads. *)
      let instances = Sys.opaque_identity instances
      and arrivals = Sys.opaque_identity arrivals
      and heads = Sys.opaque_identity heads
      and blocks = Sys.opaque_identity blocks
      and freq = Sys.opaque_identity freq
      and states = Sys.opaque_identity states
      and predicted_at = Sys.opaque_identity predicted_at
      and captured = Sys.opaque_identity captured
      and predictions = Sys.opaque_identity predictions
      and profiled = Sys.opaque_identity profiled
      and captured_total = Sys.opaque_identity captured_total
      and next_sample = Sys.opaque_identity next_sample
      and v_once = Sys.opaque_identity v_once
      and v_prev = Sys.opaque_identity v_prev
      and k = Sys.opaque_identity k in
      for i = lo to hi - 1 do
        let pid = Array.unsafe_get instances i in
        Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
        let is_loop_head =
        match Array.unsafe_get arrivals i with
        | Path.Loop_head -> true
        | Path.Entry | Path.Continuation -> false
      in
      let head = Array.unsafe_get heads pid in
      for l = 0 to k - 1 do
        let pa = predicted_at.(l) in
        if Array.unsafe_get pa pid < i then begin
          let cap = captured.(l) in
          Array.unsafe_set cap pid (Array.unsafe_get cap pid + 1);
          captured_total.(l) <- captured_total.(l) + 1
        end
        else begin
          profiled.(l) <- profiled.(l) + 1;
          (* NET profiles only targets of backward taken transfers. *)
          if is_loop_head then begin
            let st = states.(l) in
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
                if Array.unsafe_get pa target = max_int then begin
                  Array.unsafe_set pa target i;
                  (* Incremental instrumentation: one breakpoint per
                     block, charged on accepted predictions only. *)
                  st.collection <-
                    st.collection + Array.unsafe_get blocks target;
                  Vec.push predictions.(l) { target; at_instance = i }
                end
              end
            end
          end
        end
      done;
      if i + 1 >= !next_sample then begin
        sample_lanes Sampler.sample (i + 1);
        next_sample := !next_sample + (Option.get ev).ev_window
      end
      done
    in
    let finish () =
      sample_lanes Sampler.final n;
      Array.init k (fun l ->
          let st = states.(l) in
          {
            lr_predictions = Vec.to_array predictions.(l);
            lr_predicted_at = predicted_at.(l);
            lr_captured = captured.(l);
            lr_profiled = profiled.(l);
            lr_captured_total = captured_total.(l);
            lr_counter_space = st.seen;
            lr_profiling_ops = st.ops;
            lr_collection_ops = st.collection;
          })
    in
    { cw_walk = walk; cw_walk_batch = None; cw_finish = finish }

  let runner variant scheme =
    {
      lr_scheme = scheme;
      lr_make = make_walker variant scheme;
      (* Rearm/Once qualify for the compressed stream-sharded engine;
         Prev predicts a path other than the tripping one (see [fast]). *)
      lr_fast =
        (match variant with
         | Rearm -> Some Fast_net_rearm
         | Once -> Some Fast_net_once
         | Prev -> None);
    }
end

module Path_profile_kernel = struct
  (* Path_profile.t with the path-id-keyed counter table flattened;
     absence and a zero count coincide, so [seen] (counter space) ticks
     on the 0 -> 1 transition. *)
  type lane = {
    delay : int;
    counts : int array;
    mutable seen : int;
    mutable ops : int;
  }

  let make_walker scheme ~ev ~lanes ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let d = Recorder.descriptors r in
    let branches = d.Recorder.d_branches in
    let states =
      Array.map
        (fun delay ->
           { delay; counts = Array.make n_paths 0; seen = 0; ops = 0 })
        lanes
    in
    let predicted_at = Array.init k (fun _ -> Array.make n_paths max_int) in
    let captured = Array.init k (fun _ -> Array.make n_paths 0) in
    let predictions = Array.init k (fun _ -> Vec.create ()) in
    let profiled = Array.make k 0 in
    let captured_total = Array.make k 0 in
    let instances = r.Recorder.instances in
    let n = Array.length instances in
    let sampler =
      Option.map (fun e -> Sampler.create e ~scheme ~delays:lanes) ev
    in
    let next_sample =
      ref (match ev with None -> max_int | Some e -> e.ev_window)
    in
    let sample_lanes f upto =
      match sampler with
      | None -> ()
      | Some sm ->
        for l = 0 to k - 1 do
          let st = states.(l) in
          f sm l ~upto ~n_paths ~captured_arr:captured.(l)
            ~predictions:(Vec.length predictions.(l))
            ~profiled:profiled.(l) ~captured_total:captured_total.(l)
            ~counter_space:st.seen ~profiling_ops:st.ops ~collection_ops:0
        done
    in
    let walk ~lo ~hi =
      (* Hoist the hot closure captures into locals; see Net_kernel. *)
      let instances = Sys.opaque_identity instances
      and branches = Sys.opaque_identity branches
      and freq = Sys.opaque_identity freq
      and states = Sys.opaque_identity states
      and predicted_at = Sys.opaque_identity predicted_at
      and captured = Sys.opaque_identity captured
      and predictions = Sys.opaque_identity predictions
      and profiled = Sys.opaque_identity profiled
      and captured_total = Sys.opaque_identity captured_total
      and next_sample = Sys.opaque_identity next_sample
      and k = Sys.opaque_identity k in
      for i = lo to hi - 1 do
        let pid = Array.unsafe_get instances i in
        Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
        let n_branches = Array.unsafe_get branches pid in
      for l = 0 to k - 1 do
        let pa = predicted_at.(l) in
        if Array.unsafe_get pa pid < i then begin
          let cap = captured.(l) in
          Array.unsafe_set cap pid (Array.unsafe_get cap pid + 1);
          captured_total.(l) <- captured_total.(l) + 1
        end
        else begin
          profiled.(l) <- profiled.(l) + 1;
          let st = states.(l) in
          (* Bit tracing: one shift per branch on the path, one table
             update. *)
          st.ops <- st.ops + n_branches + 1;
          let count = Array.unsafe_get st.counts pid + 1 in
          Array.unsafe_set st.counts pid count;
          if count = 1 then st.seen <- st.seen + 1;
          (* [>=] rather than [=]: a counter already past the threshold
             (code-cache flush scenarios) must re-predict immediately.
             Collection is free — path-profile already holds the path. *)
          if count >= st.delay && Array.unsafe_get pa pid = max_int then begin
            Array.unsafe_set pa pid i;
            Vec.push predictions.(l) { target = pid; at_instance = i }
          end
        end
      done;
      if i + 1 >= !next_sample then begin
        sample_lanes Sampler.sample (i + 1);
        next_sample := !next_sample + (Option.get ev).ev_window
      end
      done
    in
    let finish () =
      sample_lanes Sampler.final n;
      Array.init k (fun l ->
          let st = states.(l) in
          {
            lr_predictions = Vec.to_array predictions.(l);
            lr_predicted_at = predicted_at.(l);
            lr_captured = captured.(l);
            lr_profiled = profiled.(l);
            lr_captured_total = captured_total.(l);
            lr_counter_space = st.seen;
            lr_profiling_ops = st.ops;
            lr_collection_ops = 0;
          })
    in
    { cw_walk = walk; cw_walk_batch = None; cw_finish = finish }

  let runner scheme =
    {
      lr_scheme = scheme;
      lr_make = make_walker scheme;
      lr_fast = Some Fast_pp;
    }
end

(* The k-iteration kernels mirror the scheme modules with the per-lane
   state flattened (NET-k's head table into a dense block array,
   path-profile-k's suffix trie into [Kpath.Flat] with a node-id-indexed
   counts array) and the scheme logic inlined — no module-indirected
   call, no option allocation per instance.  Neither qualifies for the compressed stream-sharded engine
   ([lr_fast = None], like [Last_executed_tail]): both carry a per-lane
   chain cursor/window whose evolution depends on which instances that
   lane still profiles, so the lane-blind phase-A compression cannot
   represent them.  At jobs > 1 they go through the chunk-tiled
   per-instance lane shards, bit-identical to serial. *)

module Kpath = Hotpath_trace.Kpath

module Path_profile_k_kernel = struct
  (* Path_profile_k.state with the module indirection gone and the
     suffix trie swapped for [Kpath.Flat] — dense level-1 array plus an
     open-addressed int table for deeper children, allocating node ids
     in exactly the reference interner's order so counter registries
     and node-indexed counts stay bit-identical.  The stdlib hashtable
     walk (hash + bucket chase per instance per lane) was what held the
     packed k-trie kernel below the generic loop. *)
  type lane = {
    delay : int;
    trie : Kpath.Flat.t;
    mutable counts : int array;
    mutable cur : int;
    mutable ops : int;
  }

  let make_walker k_iter scheme ~ev ~lanes ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let d = Recorder.descriptors r in
    let branches = d.Recorder.d_branches in
    let arrivals = Recorder.arrival_view r in
    let states =
      Array.map
        (fun delay ->
           { delay; trie = Kpath.Flat.create ~k:k_iter;
             counts = Array.make 64 0; cur = Kpath.root; ops = 0 })
        lanes
    in
    let predicted_at = Array.init k (fun _ -> Array.make n_paths max_int) in
    let captured = Array.init k (fun _ -> Array.make n_paths 0) in
    let predictions = Array.init k (fun _ -> Vec.create ()) in
    let profiled = Array.make k 0 in
    let captured_total = Array.make k 0 in
    let instances = r.Recorder.instances in
    let n = Array.length instances in
    let sampler =
      Option.map (fun e -> Sampler.create e ~scheme ~delays:lanes) ev
    in
    let next_sample =
      ref (match ev with None -> max_int | Some e -> e.ev_window)
    in
    let sample_lanes f upto =
      match sampler with
      | None -> ()
      | Some sm ->
        for l = 0 to k - 1 do
          let st = states.(l) in
          f sm l ~upto ~n_paths ~captured_arr:captured.(l)
            ~predictions:(Vec.length predictions.(l))
            ~profiled:profiled.(l) ~captured_total:captured_total.(l)
            ~counter_space:(Kpath.Flat.num_nodes st.trie - 1) ~profiling_ops:st.ops
            ~collection_ops:0
        done
    in
    let walk ~lo ~hi =
      (* Hoist the hot closure captures into locals; see Net_kernel. *)
      let instances = Sys.opaque_identity instances
      and arrivals = Sys.opaque_identity arrivals
      and branches = Sys.opaque_identity branches
      and freq = Sys.opaque_identity freq
      and states = Sys.opaque_identity states
      and predicted_at = Sys.opaque_identity predicted_at
      and captured = Sys.opaque_identity captured
      and predictions = Sys.opaque_identity predictions
      and profiled = Sys.opaque_identity profiled
      and captured_total = Sys.opaque_identity captured_total
      and next_sample = Sys.opaque_identity next_sample
      and k = Sys.opaque_identity k in
      for i = lo to hi - 1 do
        let pid = Array.unsafe_get instances i in
        Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
        let n_branches = Array.unsafe_get branches pid in
        let arrival = Array.unsafe_get arrivals i in
        for l = 0 to k - 1 do
          let pa = predicted_at.(l) in
          if Array.unsafe_get pa pid < i then begin
            let cap = captured.(l) in
            Array.unsafe_set cap pid (Array.unsafe_get cap pid + 1);
            captured_total.(l) <- captured_total.(l) + 1
          end
          else begin
            profiled.(l) <- profiled.(l) + 1;
            let st = states.(l) in
            (* Bit tracing plus the window cursor ride-along. *)
            st.ops <- st.ops + n_branches + 1;
            let node = Kpath.Flat.advance st.trie ~cur:st.cur ~arrival ~pid in
            st.cur <- node;
            let counts =
              let c = st.counts in
              if node < Array.length c then c
              else begin
                let c' = Array.make (max (node + 1) (2 * Array.length c)) 0 in
                Array.blit c 0 c' 0 (Array.length c);
                st.counts <- c';
                c'
              end
            in
            let count = Array.unsafe_get counts node + 1 in
            Array.unsafe_set counts node count;
            if count >= st.delay && Array.unsafe_get pa pid = max_int then begin
              Array.unsafe_set pa pid i;
              Vec.push predictions.(l) { target = pid; at_instance = i }
            end
          end
        done;
        if i + 1 >= !next_sample then begin
          sample_lanes Sampler.sample (i + 1);
          next_sample := !next_sample + (Option.get ev).ev_window
        end
      done
    in
    let finish () =
      sample_lanes Sampler.final n;
      Array.init k (fun l ->
          let st = states.(l) in
          {
            lr_predictions = Vec.to_array predictions.(l);
            lr_predicted_at = predicted_at.(l);
            lr_captured = captured.(l);
            lr_profiled = profiled.(l);
            lr_captured_total = captured_total.(l);
            lr_counter_space = Kpath.Flat.num_nodes st.trie - 1;
            lr_profiling_ops = st.ops;
            lr_collection_ops = 0;
          })
    in
    { cw_walk = walk; cw_walk_batch = None; cw_finish = finish }

  let runner k_iter scheme =
    {
      lr_scheme = scheme;
      lr_make = make_walker k_iter scheme;
      lr_fast = None;
    }
end

module Net_k_kernel = struct
  (* Net_k.state with the head counter table flattened like Net_kernel:
     counts.(h) < 0 means "no counter yet". *)
  type lane = {
    delay : int;
    counts : int array;
    mutable seen : int;
    mutable remaining : int;
    mutable ops : int;
    mutable collection : int;
  }

  let make_walker k_iter scheme ~ev ~lanes ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let n_blocks = Array.length r.Recorder.program.Cfg.blocks in
    let d = Recorder.descriptors r in
    let heads = d.Recorder.d_heads and blocks = d.Recorder.d_blocks in
    let arrivals = Recorder.arrival_view r in
    let states =
      Array.map
        (fun delay ->
           { delay; counts = Array.make n_blocks (-1); seen = 0; remaining = 0;
             ops = 0; collection = 0 })
        lanes
    in
    let predicted_at = Array.init k (fun _ -> Array.make n_paths max_int) in
    let captured = Array.init k (fun _ -> Array.make n_paths 0) in
    let predictions = Array.init k (fun _ -> Vec.create ()) in
    let profiled = Array.make k 0 in
    let captured_total = Array.make k 0 in
    let instances = r.Recorder.instances in
    let n = Array.length instances in
    let sampler =
      Option.map (fun e -> Sampler.create e ~scheme ~delays:lanes) ev
    in
    let next_sample =
      ref (match ev with None -> max_int | Some e -> e.ev_window)
    in
    let sample_lanes f upto =
      match sampler with
      | None -> ()
      | Some sm ->
        for l = 0 to k - 1 do
          let st = states.(l) in
          f sm l ~upto ~n_paths ~captured_arr:captured.(l)
            ~predictions:(Vec.length predictions.(l))
            ~profiled:profiled.(l) ~captured_total:captured_total.(l)
            ~counter_space:st.seen ~profiling_ops:st.ops
            ~collection_ops:st.collection
        done
    in
    let walk ~lo ~hi =
      (* Hoist the hot closure captures into locals; see Net_kernel. *)
      let instances = Sys.opaque_identity instances
      and arrivals = Sys.opaque_identity arrivals
      and heads = Sys.opaque_identity heads
      and blocks = Sys.opaque_identity blocks
      and freq = Sys.opaque_identity freq
      and states = Sys.opaque_identity states
      and predicted_at = Sys.opaque_identity predicted_at
      and captured = Sys.opaque_identity captured
      and predictions = Sys.opaque_identity predictions
      and profiled = Sys.opaque_identity profiled
      and captured_total = Sys.opaque_identity captured_total
      and next_sample = Sys.opaque_identity next_sample
      and k = Sys.opaque_identity k in
      for i = lo to hi - 1 do
        let pid = Array.unsafe_get instances i in
        Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
        let is_loop_head =
          match Array.unsafe_get arrivals i with
          | Path.Loop_head -> true
          | Path.Entry | Path.Continuation -> false
        in
        let head = Array.unsafe_get heads pid in
        for l = 0 to k - 1 do
          let pa = predicted_at.(l) in
          if Array.unsafe_get pa pid < i then begin
            let cap = captured.(l) in
            Array.unsafe_set cap pid (Array.unsafe_get cap pid + 1);
            captured_total.(l) <- captured_total.(l) + 1
          end
          else begin
            profiled.(l) <- profiled.(l) + 1;
            let st = states.(l) in
            if is_loop_head then begin
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
                  (* Trip: re-arm, predict, open (or restart) the
                     window. *)
                  Array.unsafe_set st.counts head 0;
                  st.remaining <- k_iter - 1;
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
              if offer && Array.unsafe_get pa pid = max_int then begin
                Array.unsafe_set pa pid i;
                st.collection <- st.collection + Array.unsafe_get blocks pid;
                Vec.push predictions.(l) { target = pid; at_instance = i }
              end
            end
            else
              (* The back-edge chain broke: close the window. *)
              st.remaining <- 0
          end
        done;
        if i + 1 >= !next_sample then begin
          sample_lanes Sampler.sample (i + 1);
          next_sample := !next_sample + (Option.get ev).ev_window
        end
      done
    in
    let finish () =
      sample_lanes Sampler.final n;
      Array.init k (fun l ->
          let st = states.(l) in
          {
            lr_predictions = Vec.to_array predictions.(l);
            lr_predicted_at = predicted_at.(l);
            lr_captured = captured.(l);
            lr_profiled = profiled.(l);
            lr_captured_total = captured_total.(l);
            lr_counter_space = st.seen;
            lr_profiling_ops = st.ops;
            lr_collection_ops = st.collection;
          })
    in
    { cw_walk = walk; cw_walk_batch = None; cw_finish = finish }

  let runner k_iter scheme =
    {
      lr_scheme = scheme;
      lr_make = make_walker k_iter scheme;
      lr_fast = None;
    }
end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* A packed module is recognized as a built-in by the physical identity
   of its [observe] closure — allocated once at scheme-module init and
   preserved by signature coercions, which copy module blocks but never
   wrap regular value fields.  [Obj.repr] only erases the state-type
   difference for the pointer comparison; nothing is read through it.
   Unrecognized schemes (including look-alikes that merely reuse a
   built-in's name) fall back to the generic kernel. *)
let same_fn f g = Obj.repr f == Obj.repr g

let builtin_runner (module S : Scheme.S) =
  if same_fn S.observe Net.observe then
    Some (Net_kernel.runner Net_kernel.Rearm S.name)
  else if same_fn S.observe Net.Net_once.observe then
    Some (Net_kernel.runner Net_kernel.Once S.name)
  else if same_fn S.observe Net.Last_executed_tail.observe then
    Some (Net_kernel.runner Net_kernel.Prev S.name)
  else if same_fn S.observe Path_profile.observe then
    Some (Path_profile_kernel.runner S.name)
  else
    match Path_profile_k.recognize (module S) with
    | Some k -> Some (Path_profile_k_kernel.runner k S.name)
    | None ->
      (match Net_k.recognize (module S) with
       | Some k -> Some (Net_k_kernel.runner k S.name)
       | None -> None)

let run_many ?events ?jobs ?chunk (module S : Scheme.S) ~delays
    (r : Recorder.t) =
  match builtin_runner (module S) with
  | Some runner ->
    (* The kernels do not re-validate delays; keep each scheme's own
       validation (and exception message) for the invalid ones. *)
    List.iter
      (fun d ->
         if d < 1 then ignore (S.create ~delay:d ~program:r.Recorder.program))
      delays;
    drive ?events ?jobs ?chunk runner ~delays r
  | None ->
    let module M = Make (S) in
    M.run_many ?events ?jobs ?chunk ~delays r

let run ?events scheme ~delay r =
  match run_many ?events scheme ~delays:[ delay ] r with
  | [ o ] -> o
  | _ -> assert false

(* File replay runs online [Session]s over a HOTPATH3 reader, pulled
   or mapped (both are the same reader type).  Each lane group is one
   session (the same per-instance body as [run_many], with
   per-path state grown as the stream declares paths; nothing is ever
   O(trace)).  Each instance frame is decoded once into one shared
   [Batch.t], and every session replays it via [Session.push_batch].
   Because this loop and the public online path share the session
   walker, their bit-for-bit equivalence is structural, not duplicated
   code kept in step by tests alone.

   [?jobs] maps the frames onto the same fan-out design as the
   materialized engine: each decoded batch is replayed by contiguous
   lane groups (clamped to the machine's domain budget), all lane state
   carried across frame seams inside its owning session.  Sessions only
   read the batch and the shared [Path_table] during a push, so the
   groups share them concurrently; the loop refills the batch and
   grows the table only between fan-outs ([Stream.next_batch]).  Results
   and the merged event stream are byte-identical at every job count. *)
module Stream = Hotpath_trace.Serialize.Stream

let run_many_mapped ?events:ev ?(jobs = 1) (module S : Scheme.S) ~delays rd =
  if jobs < 1 then invalid_arg "Replay.run_many_mapped: jobs must be >= 1";
  let ev = live ev in
  match Array.of_list delays with
  | [||] -> Ok []
  | lanes ->
    let k = Array.length lanes in
    let program = Stream.program rd in
    let table = Stream.table rd in
    let workers = min (Pool.effective_workers ~jobs) k in
    let slices =
      if workers <= 1 then [| lanes |] else shard_slices lanes workers
    in
    let ng = Array.length slices in
    let bufs = Array.map (fun _ -> Vec.create ()) slices in
    let sessions =
      Array.mapi
        (fun s slice ->
           (* Sampling goes to the group's line buffer, directly to the
              sink when there is a single group. *)
           let ev_s =
             if ng = 1 then ev
             else
               Option.map
                 (fun e -> { e with ev_sink = Events.of_fn (Vec.push bufs.(s)) })
                 ev
           in
           (* The reader already validated frame structure, ids, and
              arrival codes; linting belongs to callers that opt in
              (sessions over a socket), not to every file replay. *)
           match
             Session.create ?events:ev_s ~lint:false (module S)
               ~delays:(Array.to_list slice) ~program ~table
           with
           | Ok sess -> sess
           | Error _ -> assert false (* lint off: create cannot fail *))
        slices
    in
    let batch = Batch.create () in
    let rec consume () =
      match Stream.next_batch rd batch with
      | Error _ as e -> e
      | Ok false -> Ok ()
      | Ok true ->
        (* One logical read of the frame, independent of the fan-out. *)
        ignore (Atomic.fetch_and_add reads (Batch.length batch));
        let push sess =
          match Session.push_batch sess batch with
          | Ok () -> ()
          | Error e ->
            (* Unreachable: reader-validated batches against the shared
               table cannot be rejected by an unlinted session. *)
            invalid_arg ("Replay.run_many_mapped: " ^ e)
        in
        if ng = 1 then push sessions.(0)
        else ignore (Pool.map_array ~jobs:ng push sessions);
        consume ()
    in
    (match consume () with
     | Error _ as e -> e
     | Ok () ->
       let lrs =
         Array.concat
           (Array.to_list
              (Array.map (fun sess -> Array.of_list (Session.finish sess)) sessions))
       in
       if ng > 1 then
         Option.iter (fun e -> merge_event_lines e.ev_sink slices bufs) ev;
       Ok (Array.to_list lrs))

let run_mapped ?events scheme ~delay rd =
  match run_many_mapped ?events scheme ~delays:[ delay ] rd with
  | Error _ as e -> e
  | Ok [ o ] -> Ok o
  | Ok _ -> assert false

let predicted_paths o =
  Array.to_list o.predictions
  |> List.map (fun p -> p.target)
  |> List.sort Int.compare

let pp_summary ppf o =
  Format.fprintf ppf
    "@[<h>%s(delay=%d): instances=%d predicted=%d profiled=%d captured=%d \
     counters=%d ops=%d collect=%d@]"
    o.scheme_name o.delay o.total_instances
    (Array.length o.predictions)
    o.profiled_instances o.captured_instances o.counter_space o.profiling_ops
    o.collection_ops
