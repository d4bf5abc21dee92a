module Recorder = Hotpath_trace.Recorder
module Batch = Hotpath_trace.Batch
module Stream = Hotpath_trace.Serialize.Stream
module Cfg = Hotpath_cfg.Cfg
module Vec = Hotpath_util.Vec
module Events = Hotpath_util.Events
module Pool = Hotpath_util.Pool

(* The per-lane replay state and the lane loops live in [Session]; this
   module drives sessions over a source of batches.  The equations
   re-export the records so existing field accesses compile against
   either module. *)

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

type events = Session.events = {
  ev_sink : Events.sink;
  ev_window : int;
  ev_is_hot : (int -> bool) option;
}

let default_events_window = Session.default_events_window

let events = Session.events

(* Logical instance-stream reads performed by replay, for the one-pass
   guarantee: multiplexing k delays must read the trace once, not k
   times.  Atomic because experiment fan-out replays from several
   domains.  The count is per logical traversal and independent of
   [?jobs]: every lane group replays the same batch, and the fast
   engines read each instance once. *)
let reads = Atomic.make 0

let instance_reads () = Atomic.get reads

let reset_instance_reads () = Atomic.set reads 0

(* ------------------------------------------------------------------ *)
(* Lane groups                                                         *)
(* ------------------------------------------------------------------ *)

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

(* Every group's sampler emits, per window round, one line per lane in
   lane order, and all lanes across all groups hit the same window
   boundaries (same trace length, same window).  Groups hold contiguous
   lane slices, so the serial stream — round-major, lane-minor over the
   global lane order — is recovered by concatenating each round's
   per-group lines in group order. *)
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
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* Chunks large enough to amortize per-chunk work, small enough that a
   batch (and the fast engines' per-chunk buffers) stays L2-resident
   while every lane group replays it. *)
let default_chunk = 65_536

(* The slice a single lane group copies a recording in.  Every replay
   allocates its batch in the major heap, and that allocation paces the
   major GC: a [default_chunk] batch is about seven times the words a
   single lane allocates, enough to start a major cycle (which marks
   the recording's own arrays) every few dozen replays.  This size
   keeps the batch cache-resident and the allocation small; a fan-out
   keeps [chunk]-sized slices to amortize handing each batch to other
   domains. *)
let single_group_slice = 4_096

(* Where the batches come from: a recording, cut into slices of [chunk]
   instances, or a HOTPATH3 reader, one instance frame per batch. *)
type source = Recording of int * Recorder.t | Reader of Stream.reader

(* Copy instances [base, base + m) of a recording into batch slots
   [0, m).  A function of its own, so the loop keeps every array in a
   register rather than re-reading a closure's environment per
   instance. *)
let copy_slice (instances : int array) arrivals base (ids : int array)
    (arrs : int array) m =
  for j = 0 to m - 1 do
    Array.unsafe_set ids j (Array.unsafe_get instances (base + j));
    Array.unsafe_set arrs j (Char.code (Bytes.unsafe_get arrivals (base + j)))
  done

(* The source's one cursor: each call refills the batch with the next
   slice ([Ok false] at the end). *)
let cursor = function
  | Reader rd -> Stream.next_batch rd
  | Recording (chunk, r) ->
    let instances = r.Recorder.instances and arrivals = r.Recorder.arrivals in
    let n = Array.length instances and off = ref 0 in
    fun (b : Batch.t) ->
      if !off >= n then Ok false
      else begin
        let base = !off in
        let m = min chunk (n - base) in
        Batch.ensure b m;
        copy_slice instances arrivals base b.Batch.ids b.Batch.arrs m;
        Batch.set_length b m;
        off := base + m;
        Ok true
      end

let push sess b =
  match Session.push_batch sess b with
  | Ok () -> ()
  | Error e -> invalid_arg ("Replay: " ^ e)

(* One driver for every source.  Each lane group — one [Session] over a
   contiguous slice of the delays, as many groups as the machine's
   domain budget allows — replays the whole stream, all lane state
   carried across batch seams inside its session, so results and the
   merged event stream are byte-identical at every job count and batch
   size.  The source's one cursor fills one batch, which is fanned out
   to every group (sessions only read the batch and the table during a
   push, and the cursor refills the batch and grows the table only
   between fan-outs); a single group runs inline.  An empty delay list
   never touches the source. *)
let drive ?events ~jobs scheme ~delays src =
  let ev = Session.live events in
  match Array.of_list delays with
  | [||] -> Ok []
  | lanes ->
    let program, table =
      match src with
      | Recording (_, r) -> (r.Recorder.program, r.Recorder.table)
      | Reader rd -> (Stream.program rd, Stream.table rd)
    in
    let workers = min (Pool.effective_workers ~jobs) (Array.length lanes) in
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
           (* Every source has validated ids and arrival codes already;
              linting belongs to callers that opt in (sessions over a
              socket), not to every replay. *)
           match
             Session.create ?events:ev_s ~lint:false scheme
               ~delays:(Array.to_list slice) ~program ~table
           with
           | Ok sess -> sess
           | Error _ -> assert false (* lint off: create cannot fail *))
        slices
    in
    let src =
      match src with
      | Recording (chunk, r) when ng = 1 ->
        Recording (min chunk single_group_slice, r)
      | src -> src
    in
    (* Sized for a whole slice up front, so a recording's batch never
       grows through a chain of discarded arrays. *)
    let capacity =
      match src with
      | Recording (chunk, r) -> min chunk (Recorder.num_instances r)
      | Reader _ -> 1024
    in
    let fill = cursor src and b = Batch.create ~capacity () in
    let rec fan_out () =
      match fill b with
      | Error _ as e -> e
      | Ok false -> Ok ()
      | Ok true ->
        ignore (Atomic.fetch_and_add reads (Batch.length b));
        ignore (Pool.map_array ~jobs:ng (fun sess -> push sess b) sessions);
        fan_out ()
    in
    Result.map
      (fun () ->
         let outcomes =
           Array.to_list sessions |> List.concat_map Session.finish
         in
         if ng > 1 then
           Option.iter (fun e -> merge_event_lines e.ev_sink slices bufs) ev;
         outcomes)
      (fan_out ())

let check_run_many ~jobs ~chunk =
  if jobs < 1 then invalid_arg "Replay.run_many: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Replay.run_many: chunk must be >= 1"

let replay_recording ?events ~jobs ~chunk scheme ~delays r =
  check_run_many ~jobs ~chunk;
  match drive ?events ~jobs scheme ~delays (Recording (chunk, r)) with
  | Ok os -> os
  | Error e -> invalid_arg ("Replay.run_many: " ^ e)

(* ------------------------------------------------------------------ *)
(* Stream-sharded fast engines                                         *)
(* ------------------------------------------------------------------ *)

(* At jobs > 1 with events off, the NET (re-arm and once) and
   path-profile kernels replay a recording from a compressed form of
   the instance stream instead of through sessions:

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
   Last-executed-tail predicts a path other than the tripping one, so
   it has no fast engine. *)
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

  let outcomes ~scheme ~lanes ~n ~freq ~preds ~pa ~captured ~total
      ~counter_space ~profiling_ops ~collection_ops =
    List.init (Array.length lanes) (fun l ->
        {
          scheme_name = scheme;
          delay = lanes.(l);
          total_instances = n;
          predictions = Vec.to_array preds.(l);
          predicted_at = pa.(l);
          freq = (if l = 0 then freq else Array.copy freq);
          captured = captured.(l);
          profiled_instances = n - total.(l);
          captured_instances = total.(l);
          counter_space = counter_space l;
          profiling_ops = profiling_ops l;
          collection_ops = collection_ops l;
        })

  let net ~once ~scheme ~lanes ~workers (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let n_blocks = Array.length r.Recorder.program.Cfg.blocks in
    let d = Recorder.descriptors r in
    let heads = d.Recorder.d_heads and blocks = d.Recorder.d_blocks in
    let n = Array.length r.Recorder.instances in
    (* Phase A is the recording-level loop index: the loop-head event
       stream grouped into maximal same-path runs, plus final
       frequencies — built once per recording ([Recorder.loop_index]
       caches it) and shared by every lane group, every delay set, and
       every subsequent replay of the same recording.  A maximal run is
       just the chunk-truncated runs of a per-chunk phase A merged:
       splitting a run anywhere yields two shorter runs advancing the
       same carried counter, so phase C is bit-identical on either form
       and needs no chunk loop. *)
    let li = Recorder.loop_index r in
    let ev_idx = li.Recorder.li_idx in
    let ev_occ = li.Recorder.li_occ in
    let run_pid = li.Recorder.li_run_pid in
    let run_off = li.Recorder.li_run_off in
    let run_len = li.Recorder.li_run_len in
    let freq = Array.copy li.Recorder.li_freq in
    let nr = Array.length run_pid in
    (* Per-lane state. *)
    let pa = Array.init k (fun _ -> Array.make n_paths max_int) in
    let cap_base = Array.init k (fun _ -> Array.make n_paths 0) in
    let counts = Array.init k (fun _ -> Array.make n_blocks (-1)) in
    let retired =
      Array.init k (fun _ -> if once then Array.make n_blocks false else [||])
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
      (* Hoist the closure captures into locals: [opaque_identity] stops
         the simplifier from substituting the aliases back into
         per-iteration environment reads. *)
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
      and once = Sys.opaque_identity once in
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
            if not (once && Array.unsafe_get (Array.unsafe_get retired l) h)
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
                if once then
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
    let total = Array.make k 0 in
    let captured =
      Array.init k (fun l ->
          let captured = Array.make n_paths 0 in
          let pal = pa.(l) and cb = cap_base.(l) in
          for pid = 0 to n_paths - 1 do
            if Array.unsafe_get pal pid <> max_int then begin
              let c = Array.unsafe_get freq pid - Array.unsafe_get cb pid in
              Array.unsafe_set captured pid c;
              total.(l) <- total.(l) + c
            end
          done;
          captured)
    in
    outcomes ~scheme ~lanes ~n ~freq ~preds ~pa ~captured ~total
      ~counter_space:(Array.get seen) ~profiling_ops:(Array.get ops)
      ~collection_ops:(Array.get coll)

  (* Path-profile predicts a path at exactly its [delay]-th profiled
     occurrence (its first [min freq delay] occurrences are profiled,
     the rest captured), so phase A only records threshold crossings —
     (path, occurrence, index) triggers — and everything else is closed
     form over the final [freq]. *)
  let path_profile ~scheme ~lanes ~chunk ~workers (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let branches = (Recorder.descriptors r).Recorder.d_branches in
    let instances = r.Recorder.instances in
    let n = Array.length instances in
    let freq = Array.make n_paths 0 in
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
    let seen = Array.fold_left (fun s f -> if f > 0 then s + 1 else s) 0 freq in
    let total = Array.make k 0 and ops = Array.make k 0 in
    let captured =
      Array.init k (fun l ->
          let delay = lanes.(l) in
          let captured = Array.make n_paths 0 in
          let pal = pa.(l) in
          for pid = 0 to n_paths - 1 do
            let f = Array.unsafe_get freq pid in
            let profiled_occ = if f < delay then f else delay in
            ops.(l) <- ops.(l) + (profiled_occ * (Array.unsafe_get branches pid + 1));
            if Array.unsafe_get pal pid <> max_int then begin
              let c = f - delay in
              Array.unsafe_set captured pid c;
              total.(l) <- total.(l) + c
            end
          done;
          captured)
    in
    outcomes ~scheme ~lanes ~n ~freq ~preds ~pa ~captured ~total
      ~counter_space:(fun _ -> seen) ~profiling_ops:(Array.get ops)
      ~collection_ops:(fun _ -> 0)
end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run_many ?events ?(jobs = 1) ?(chunk = default_chunk)
    (module S : Scheme.S) ~delays (r : Recorder.t) =
  check_run_many ~jobs ~chunk;
  let fast_eligible =
    jobs > 1 && delays <> [] && Session.live events = None
  in
  match Session.kernel (module S) with
  | (Session.Net_kernel (Rearm | Once) | Session.Path_profile_kernel) as kernel
    when fast_eligible ->
    (* The engines do not validate delays; keep the scheme's own
       validation (and exception message) for the invalid ones. *)
    List.iter
      (fun d -> if d < 1 then ignore (S.create ~delay:d ~program:r.Recorder.program))
      delays;
    ignore (Atomic.fetch_and_add reads (Recorder.num_instances r));
    let lanes = Array.of_list delays in
    (* Fan-out width: the [jobs] ask clamped to the machine's domain
       budget and the lane count. *)
    let workers = min (Pool.effective_workers ~jobs) (Array.length lanes) in
    if kernel = Session.Path_profile_kernel then
      Fast.path_profile ~scheme:S.name ~lanes ~chunk ~workers r
    else
      Fast.net ~once:(kernel = Session.Net_kernel Once) ~scheme:S.name ~lanes
        ~workers r
  | _ -> replay_recording ?events ~jobs ~chunk (module S) ~delays r

let run ?events scheme ~delay r =
  match run_many ?events scheme ~delays:[ delay ] r with
  | [ o ] -> o
  | _ -> assert false

module Make (S : Scheme.S) = struct
  (* Fresh closures for the two members [Session.kernel] keys on, so the
     session always runs the generic loop: this is the reference the
     kernels are tested against. *)
  module Generic : Scheme.S = struct
    include S

    let create ~delay ~program = S.create ~delay ~program

    let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
      S.observe t ~head ~arrival ~path_id ~n_branches ~n_blocks
  end

  let run_many ?events ?(jobs = 1) ?(chunk = default_chunk) ~delays r =
    replay_recording ?events ~jobs ~chunk (module Generic) ~delays r

  let run ?events ~delay r =
    match run_many ?events ~delays:[ delay ] r with
    | [ o ] -> o
    | _ -> assert false
end

let run_many_mapped ?events ?(jobs = 1) scheme ~delays rd =
  if jobs < 1 then invalid_arg "Replay.run_many_mapped: jobs must be >= 1";
  drive ?events ~jobs scheme ~delays (Reader rd)

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
