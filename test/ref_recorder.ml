(* Reference recorder for the differential tests: the list-based path
   segmenter and Hashtbl intern the recorder used before it became
   allocation-free, kept here verbatim in spirit so the optimized
   Segmenter/Path_table can be pinned to it.

   It shares only [Vm.step] with the library.  Each step is snapshotted
   into the old transfer record; the segmenter conses blocks onto a
   list; a signature is the tuple (head, branch count, int64 history,
   indirect-target list) and the intern table a polymorphic Hashtbl
   over it; the VM statistics are counted here from the transfers, with
   the call depth tracked from calls and returns. *)

module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Path = Hotpath_trace.Path
module Signature = Hotpath_trace.Signature
module Path_table = Hotpath_trace.Path_table
module Recorder = Hotpath_trace.Recorder

type transfer_kind =
  | T_branch of { taken : bool }
  | T_jump
  | T_indirect
  | T_call
  | T_return
  | T_exit

type transfer = {
  src : Cfg.block_id;
  kind : transfer_kind;
  dst : Cfg.block_id option;
  backward : bool;
}

let snapshot vm =
  let c = Vm.cursor vm in
  let kind =
    match c.Vm.kind with
    | Vm.T_branch -> T_branch { taken = c.Vm.taken }
    | Vm.T_jump -> T_jump
    | Vm.T_indirect -> T_indirect
    | Vm.T_call -> T_call
    | Vm.T_return -> T_return
    | Vm.T_exit -> T_exit
  in
  let dst = if c.Vm.kind = Vm.T_exit then None else Some c.Vm.dst in
  { src = c.Vm.src; kind; dst; backward = c.Vm.backward }

(* Every transfer of a run, in order, with the run's statistics. *)
let transfers ?max_steps vm =
  let acc = ref [] in
  let stats = Vm.run ?max_steps vm ~on_transfer:(fun vm -> acc := snapshot vm :: !acc) in
  (List.rev !acc, stats)

type signature = {
  head : Cfg.block_id;
  len : int;
  bits : int64;
  indirects : Cfg.block_id list;
}

type path = {
  signature : signature;
  blocks : Cfg.block_id array;
  n_instrs : int;
  n_branches : int;
  end_kind : Path.end_kind;
}

type recording = {
  paths : path array;  (* by id, in first-seen order *)
  instances : int array;
  arrivals : Bytes.t;
  vm_stats : Vm.run_stats;
}

type segmenter = {
  program : Cfg.program;
  mutable s_head : Cfg.block_id;
  mutable s_len : int;
  mutable s_bits : int64;
  mutable s_indirects : Cfg.block_id list;  (* reversed *)
  mutable s_blocks : Cfg.block_id list;  (* reversed *)
  mutable s_instrs : int;
  mutable calls_on_path : int;
  mutable arrival : Path.head_kind;
  mutable exited : bool;
}

let weight seg b = (Cfg.block seg.program b).Cfg.weight

let start seg head arrival =
  seg.s_head <- head;
  seg.s_len <- 0;
  seg.s_bits <- 0L;
  seg.s_indirects <- [];
  seg.s_blocks <- [ head ];
  seg.s_instrs <- weight seg head;
  seg.calls_on_path <- 0;
  seg.arrival <- arrival

let create program =
  let seg =
    {
      program; s_head = 0; s_len = 0; s_bits = 0L; s_indirects = []; s_blocks = [];
      s_instrs = 0; calls_on_path = 0; arrival = Path.Entry; exited = false;
    }
  in
  start seg (Cfg.entry_block program) Path.Entry;
  seg

let finish seg end_kind =
  ( {
      signature =
        { head = seg.s_head; len = seg.s_len; bits = seg.s_bits;
          indirects = List.rev seg.s_indirects };
      blocks = Array.of_list (List.rev seg.s_blocks);
      n_instrs = seg.s_instrs;
      n_branches = seg.s_len;
      end_kind;
    },
    seg.arrival )

let feed seg tr =
  if seg.exited then invalid_arg "Ref_recorder.feed: program already exited";
  (match tr.kind with
   | T_branch { taken } ->
     if taken then seg.s_bits <- Int64.(logor seg.s_bits (shift_left 1L seg.s_len));
     seg.s_len <- seg.s_len + 1
   | T_indirect -> seg.s_indirects <- Option.get tr.dst :: seg.s_indirects
   | T_call -> seg.calls_on_path <- seg.calls_on_path + 1
   | T_return | T_jump | T_exit -> ());
  let matched_return =
    match tr.kind with
    | T_return when seg.calls_on_path > 0 ->
      seg.calls_on_path <- seg.calls_on_path - 1;
      true
    | _ -> false
  in
  let ended =
    match tr.kind with
    | T_exit -> Some Path.Program_end
    | _ when tr.backward -> Some Path.Backward_transfer
    | _ when matched_return -> Some Path.Matched_return
    | T_branch _ when seg.s_len = Signature.max_branches -> Some Path.Cap
    | _ -> None
  in
  (match tr.kind, ended, tr.dst with
   | T_return, None, Some target -> seg.s_indirects <- target :: seg.s_indirects
   | _ -> ());
  match ended, tr.dst with
  | Some end_kind, Some dst ->
    let c = finish seg end_kind in
    start seg dst (if tr.backward then Path.Loop_head else Path.Continuation);
    Some c
  | Some end_kind, None ->
    let c = finish seg end_kind in
    seg.exited <- true;
    Some c
  | None, Some dst ->
    seg.s_blocks <- dst :: seg.s_blocks;
    seg.s_instrs <- seg.s_instrs + weight seg dst;
    None
  | None, None -> assert false

let arrival_code = function
  | Path.Loop_head -> '\000'
  | Path.Entry -> '\001'
  | Path.Continuation -> '\002'

let record ?(max_steps = max_int) ?(max_paths = max_int) ?max_stack program behavior
    ~rng =
  let vm = Vm.create ?max_stack program behavior ~rng in
  let seg = create program in
  let ids = Hashtbl.create 1024 in
  let paths = ref [] and n_paths = ref 0 in
  let instances = ref [] and arrivals = Buffer.create 1024 and total = ref 0 in
  let blocks = ref 0 and branches = ref 0 and calls = ref 0 and returns = ref 0 in
  let indirects = ref 0 and backward = ref 0 and depth = ref 0 and max_depth = ref 0 in
  let rec loop () =
    if !total >= max_paths || !blocks >= max_steps then `Fuel
    else if not (Vm.step vm) then `Exited
    else begin
      let tr = snapshot vm in
      incr blocks;
      (match tr.kind with
       | T_branch _ -> incr branches
       | T_call ->
         incr calls;
         incr depth;
         max_depth := max !max_depth !depth
       | T_return ->
         incr returns;
         decr depth
       | T_indirect -> incr indirects
       | T_jump | T_exit -> ());
      if tr.backward then incr backward;
      (match feed seg tr with
       | Some (p, arrival) ->
         let id =
           match Hashtbl.find_opt ids p.signature with
           | Some id -> id
           | None ->
             let id = !n_paths in
             Hashtbl.add ids p.signature id;
             paths := p :: !paths;
             incr n_paths;
             id
         in
         instances := id :: !instances;
         Buffer.add_char arrivals (arrival_code arrival);
         incr total
       | None -> ());
      if tr.kind = T_exit then `Exited else loop ()
    end
  in
  let reason = loop () in
  {
    paths = Array.of_list (List.rev !paths);
    instances = Array.of_list (List.rev !instances);
    arrivals = Buffer.to_bytes arrivals;
    vm_stats =
      {
        Vm.reason;
        blocks = !blocks;
        branches = !branches;
        calls = !calls;
        returns = !returns;
        indirects = !indirects;
        backward_transfers = !backward;
        max_stack = !max_depth;
      };
  }

(* The first difference between a library recording and the reference,
   or [None] when table contents, instance ids, arrival bytes and VM
   statistics all agree. *)
let diff (r : Recorder.t) (ref_ : recording) =
  let table = r.Recorder.table in
  let path_diff id (p : Path.t) =
    let q = ref_.paths.(id) in
    let s = p.Path.signature in
    if Signature.head s <> q.signature.head then Some "signature head"
    else if Signature.length s <> q.signature.len then Some "signature length"
    else if not (Int64.equal (Signature.history s) q.signature.bits) then
      Some "signature history"
    else if Signature.indirect_targets s <> q.signature.indirects then
      Some "signature indirect targets"
    else if p.Path.blocks <> q.blocks then Some "blocks"
    else if p.Path.n_instrs <> q.n_instrs then Some "n_instrs"
    else if p.Path.n_branches <> q.n_branches then Some "n_branches"
    else if p.Path.end_kind <> q.end_kind then Some "end_kind"
    else None
  in
  if Path_table.size table <> Array.length ref_.paths then
    Some
      (Printf.sprintf "%d paths, reference %d" (Path_table.size table)
         (Array.length ref_.paths))
  else
    let first = ref None in
    Path_table.iter
      (fun p ->
         if !first = None then
           Option.iter
             (fun what -> first := Some (Printf.sprintf "path %d: %s" p.Path.id what))
             (path_diff p.Path.id p))
      table;
    match !first with
    | Some _ as d -> d
    | None ->
      if r.Recorder.instances <> ref_.instances then Some "instance ids"
      else if not (Bytes.equal r.Recorder.arrivals ref_.arrivals) then
        Some "arrival bytes"
      else if r.Recorder.vm_stats <> ref_.vm_stats then Some "vm_stats"
      else None
