module Replay = Hotpath_prediction.Replay
module Events = Hotpath_util.Events

type point = {
  delay : int;
  profiled_pct : float;
  hit_rate : float;
  noise_rate : float;
  predictions : int;
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}

type timing = { wall_s : float; instances : int; instances_per_s : float }

(* The paper sweeps 10 .. 1,000,000 on runs with flow in the billions.  At
   this reproduction's scaled flow (~10^5), small delays map to the same
   freq(p)/tau regime the paper's 10..100 occupies, so the sweep starts at
   2. *)
let default_delays =
  [ 2; 3; 5; 10; 20; 50; 100; 200; 500; 1_000; 2_000; 5_000; 10_000; 20_000;
    50_000; 100_000; 200_000; 500_000; 1_000_000 ]

let point_of_outcome (o : Replay.outcome) hot =
  let rates = Rates.operational o hot in
  {
    delay = o.Replay.delay;
    profiled_pct = rates.Rates.profiled_flow_pct;
    hit_rate = rates.Rates.hit_rate;
    noise_rate = rates.Rates.noise_rate;
    predictions = Array.length o.Replay.predictions;
    counter_space = o.Replay.counter_space;
    profiling_ops = o.Replay.profiling_ops;
    collection_ops = o.Replay.collection_ops;
  }

let scheme_name = Hotpath_prediction.Scheme.name

(* Sweep-level emission: one [sweep_point] per delay (after the shared
   traversal finishes — points exist only then) and, on the timed
   variants, a [sweep_done] with the wall clock.  The same sink is also
   handed down to Replay so the per-window time series and the per-delay
   summary land interleaved in one stream. *)
let emit_points sink scheme points =
  if not (Events.is_null sink) then begin
    let name = scheme_name scheme in
    let total = List.length points in
    List.iteri
      (fun idx p ->
        Events.sweep_point sink ~scheme:name ~delay:p.delay ~idx ~total
          ~profiled_pct:p.profiled_pct ~hit_rate:p.hit_rate
          ~noise_rate:p.noise_rate ~predictions:p.predictions
          ~counter_space:p.counter_space ~profiling_ops:p.profiling_ops
          ~collection_ops:p.collection_ops)
      points
  end

let emit_done sink scheme ~delays t =
  if not (Events.is_null sink) then
    Events.sweep_done sink ~scheme:(scheme_name scheme)
      ~delays:(List.length delays) ~wall_s:t.wall_s ~instances:t.instances
      ~instances_per_s:t.instances_per_s

let replay_events ?events ?is_hot ?events_window () =
  match events with
  | Some sink when not (Events.is_null sink) ->
    Some (Replay.events ?window:events_window ?is_hot sink)
  | _ -> None

(* All delays are multiplexed through one traversal of the trace
   (Replay.run_many); a sweep costs one replay, not one per delay. *)
let run ?events ?events_window scheme r ~hot ~delays =
  let ev =
    replay_events ?events ~is_hot:(Hot_set.is_hot hot) ?events_window ()
  in
  let points =
    List.map
      (fun o -> point_of_outcome o hot)
      (Replay.run_many ?events:ev scheme ~delays r)
  in
  Option.iter (fun sink -> emit_points sink scheme points) events;
  points

let run_timed ?events ?events_window scheme r ~hot ~delays =
  let t0 = Unix.gettimeofday () in
  let points = run ?events ?events_window scheme r ~hot ~delays in
  let wall_s = Unix.gettimeofday () -. t0 in
  let instances = Array.length r.Hotpath_trace.Recorder.instances in
  let instances_per_s =
    if wall_s > 0.0 then float_of_int instances /. wall_s else 0.0
  in
  let t = { wall_s; instances; instances_per_s } in
  Option.iter (fun sink -> emit_done sink scheme ~delays t) events;
  (points, t)

(* Streamed sweep: the hot set is ground truth derived from full-run
   frequencies, so it cannot exist before the trace has been walked; it
   is computed from the first outcome's [freq] (identical across lanes)
   after the single streamed traversal. *)
let run_stream ?events ?events_window scheme rd ~threshold ~delays =
  (* A single pass cannot know the hot set while it runs, so the streamed
     replay_window samples carry no hits/noise fields. *)
  let ev = replay_events ?events ?events_window () in
  match Replay.run_many_mapped ?events:ev scheme ~delays rd with
  | Error _ as e -> e
  | Ok [] -> Ok []
  | Ok (o :: _ as outcomes) ->
    let hot = Hot_set.of_outcome o ~threshold in
    let points = List.map (fun o -> point_of_outcome o hot) outcomes in
    Option.iter (fun sink -> emit_points sink scheme points) events;
    Ok points

let pp_timing ppf t =
  Format.fprintf ppf "@[<h>%.3fs over %d instances (%.2e instances/s)@]"
    t.wall_s t.instances t.instances_per_s

let interpolate field points ~profiled_pct =
  (* Points ordered by increasing delay are increasing in profiled flow;
     sort defensively and scan for the bracketing pair. *)
  let pts =
    List.sort (fun a b -> Float.compare a.profiled_pct b.profiled_pct) points
  in
  (* An exact query (within 1e-9) on any swept point returns that point's
     value, duplicated or boundary points included; interpolation is only
     for queries strictly between points. *)
  match
    List.find_opt (fun p -> Float.abs (p.profiled_pct -. profiled_pct) < 1e-9) pts
  with
  | Some p -> Some (field p)
  | None ->
    let rec scan = function
      | [] | [ _ ] -> None
      | a :: (b :: _ as rest) ->
        if profiled_pct < a.profiled_pct then None
        else if profiled_pct <= b.profiled_pct then begin
          let span = b.profiled_pct -. a.profiled_pct in
          if span <= 0.0 then Some (field a)
          else
            let w = (profiled_pct -. a.profiled_pct) /. span in
            Some ((field a *. (1.0 -. w)) +. (field b *. w))
        end
        else scan rest
    in
    scan pts

let interpolate_hit_at points ~profiled_pct =
  interpolate (fun p -> p.hit_rate) points ~profiled_pct

let interpolate_noise_at points ~profiled_pct =
  interpolate (fun p -> p.noise_rate) points ~profiled_pct

let pp_point ppf p =
  Format.fprintf ppf
    "@[<h>delay=%d profiled=%.2f%% hit=%.1f%% noise=%.1f%% preds=%d counters=%d@]"
    p.delay p.profiled_pct p.hit_rate p.noise_rate p.predictions p.counter_space
