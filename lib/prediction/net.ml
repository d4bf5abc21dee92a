module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path

(* Shared machinery: a counter per loop head; variants differ in what they
   predict at the trip point and whether the counter re-arms. *)

type state = {
  delay : int;
  counters : (Cfg.block_id, int) Hashtbl.t;
  retired : (Cfg.block_id, unit) Hashtbl.t;  (* heads that fired (once-mode) *)
  last_tail : (Cfg.block_id, int) Hashtbl.t;  (* head -> previous path id *)
  mutable ops : int;
  mutable collection : int;
}

type variant = Next_tail | Next_tail_once | Previous_tail

let observe_variant variant t ~head ~arrival ~path_id ~n_branches ~n_blocks =
  ignore n_branches;
  ignore n_blocks;
  match arrival with
  | Path.Entry | Path.Continuation ->
    (* NET profiles only targets of backward taken transfers. *)
    None
  | Path.Loop_head ->
    if variant = Next_tail_once && Hashtbl.mem t.retired head then None
    else begin
      t.ops <- t.ops + 1;
      let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.counters head) in
      if count < t.delay then begin
        Hashtbl.replace t.counters head count;
        (if variant = Previous_tail then Hashtbl.replace t.last_tail head path_id);
        None
      end
      else begin
        (* Counter trips: re-arm and predict. *)
        Hashtbl.replace t.counters head 0;
        if variant = Next_tail_once then Hashtbl.replace t.retired head ();
        (* Collection is NOT charged here: offering a tail is free, and
           the driver may drop the offer (target already predicted).  The
           breakpoint cost lands via [collect] on accepted predictions
           only. *)
        match variant with
        | Next_tail | Next_tail_once -> Some path_id
        | Previous_tail ->
          let prev = Hashtbl.find_opt t.last_tail head in
          Hashtbl.replace t.last_tail head path_id;
          (* Fall back to the current tail when the head has no history
             (its earlier tails were all predicted already). *)
          (match prev with Some p -> Some p | None -> Some path_id)
      end
    end

module Make (V : sig
    val variant : variant

    val name : string
  end) =
struct
  type t = state

  let name = V.name

  let kernel =
    match V.variant with
    | Next_tail -> Scheme.Net
    | Next_tail_once -> Scheme.Net_once
    | Previous_tail -> Scheme.Last_executed_tail

  let create ~program ~delay =
    ignore program;
    if delay < 1 then invalid_arg (V.name ^ ".create: delay must be >= 1");
    {
      delay;
      counters = Hashtbl.create 256;
      retired = Hashtbl.create 64;
      last_tail = Hashtbl.create 256;
      ops = 0;
      collection = 0;
    }

  let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
    observe_variant V.variant t ~head ~arrival ~path_id ~n_branches ~n_blocks

  (* Incremental instrumentation: one breakpoint per block of the
     collected tail, charged only when the driver accepts the
     prediction. *)
  let collect t ~n_blocks = t.collection <- t.collection + n_blocks

  (* Every observed loop head keeps an entry in [counters] (tripping resets
     it to zero), so the table size is the allocated counter space. *)
  let counter_space t = Hashtbl.length t.counters

  let profiling_ops t = t.ops

  let collection_ops t = t.collection
end

include Make (struct
    let variant = Next_tail

    let name = "net"
  end)

module Net_once = Make (struct
    let variant = Next_tail_once

    let name = "net-once"
  end)

module Last_executed_tail = Make (struct
    let variant = Previous_tail

    let name = "let"
  end)
