module Recorder = Hotpath_trace.Recorder
module Batch = Hotpath_trace.Batch
module Stream = Hotpath_trace.Serialize.Stream

(* The per-lane replay state and the lane loops live in [Session]; this
   module drives one session over a source of batches.  The equations
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

type events = Session.events

let default_events_window = Session.default_events_window

let events = Session.events

(* Logical instance-stream reads performed by replay, for the one-pass
   guarantee: multiplexing k delays must read the trace once, not k
   times.  Atomic because experiment fan-out replays from several
   domains. *)
let reads = Atomic.make 0

let instance_reads () = Atomic.get reads

let reset_instance_reads () = Atomic.set reads 0

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* Where the instances come from: a recording, or a HOTPATH3 reader,
   one instance frame per batch. *)
type source = Recording of Recorder.t | Reader of Stream.reader

(* One driver for every source: one [Session] holding every delay lane
   replays the whole stream, all lane state carried across batch seams
   inside the session.  A recording is one batch of its own arrays (the
   session cuts it at sample-window ends); a reader refills one reused
   batch per frame.  An empty delay list never touches the source. *)
let drive ?events scheme ~delays src =
  match delays with
  | [] -> Ok []
  | _ -> (
    let program, table =
      match src with
      | Recording r -> (r.Recorder.program, r.Recorder.table)
      | Reader rd -> (Stream.program rd, Stream.table rd)
    in
    (* Every source has validated ids and arrival codes already; linting
       belongs to callers that opt in (sessions over a socket), not to
       every replay. *)
    let sess =
      match Session.create ?events ~lint:false scheme ~delays ~program ~table with
      | Ok sess -> sess
      | Error _ -> assert false (* lint off: create cannot fail *)
    in
    let push (b : Batch.t) =
      ignore (Atomic.fetch_and_add reads (Batch.length b));
      match Session.push_batch sess b with
      | Ok () -> ()
      | Error e -> invalid_arg ("Replay: " ^ e)
    in
    match src with
    | Recording r ->
      push
        {
          Batch.n = Recorder.num_instances r;
          ids = r.Recorder.instances;
          arrs = r.Recorder.arrivals;
        };
      Ok (Session.finish sess)
    | Reader rd ->
      let b = Batch.create () in
      let rec go () =
        match Stream.next_batch rd b with
        | Error _ as e -> e
        | Ok false -> Ok (Session.finish sess)
        | Ok true ->
          push b;
          go ()
      in
      go ())

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run_many ?events scheme ~delays r =
  match drive ?events scheme ~delays (Recording r) with
  | Ok os -> os
  | Error e -> invalid_arg ("Replay.run_many: " ^ e)

let run ?events scheme ~delay r =
  match run_many ?events scheme ~delays:[ delay ] r with
  | [ o ] -> o
  | _ -> assert false

let run_many_mapped ?events scheme ~delays rd =
  drive ?events scheme ~delays (Reader rd)

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
