module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Behavior = Hotpath_vm.Behavior
module Diag = Hotpath_analysis.Diag

type t = {
  program : Cfg.program;
  table : Path_table.t;
  instances : int array;
  arrivals : Bytes.t;
  vm_stats : Vm.run_stats;
}

type chunked_summary = {
  cs_instances : int;
  cs_paths : int;
  cs_vm_stats : Vm.run_stats;
}

let default_chunk_instances = 65_536

(* Instance ids and arrival codes in two arrays that double as they
   fill, up to [cap] entries. *)
type buffer = {
  b_cap : int;
  mutable b_ids : int array;
  mutable b_arrivals : Bytes.t;
  mutable b_len : int;
}

let buffer ~cap =
  let size = min cap 4096 in
  { b_cap = cap; b_ids = Array.make size 0; b_arrivals = Bytes.create size; b_len = 0 }

let push buf id arrival =
  let n = buf.b_len in
  if n = Array.length buf.b_ids then begin
    let size = min buf.b_cap (2 * n) in
    let ids = Array.make size 0 in
    Array.blit buf.b_ids 0 ids 0 n;
    buf.b_ids <- ids;
    buf.b_arrivals <- Bytes.extend buf.b_arrivals 0 (size - n)
  end;
  Array.unsafe_set buf.b_ids n id;
  Bytes.unsafe_set buf.b_arrivals n (Path.arrival_code arrival);
  buf.b_len <- n + 1

let drive ?max_steps ?max_paths ?max_stack program behavior ~rng ~table ~on_path =
  let vm = Vm.create ?max_stack program behavior ~rng in
  let reason =
    Segmenter.run ?max_steps ?max_paths (Segmenter.create program table) vm ~on_path
  in
  Vm.stats vm ~reason

let record_chunked ?max_steps ?max_paths ?max_stack
    ?(chunk_instances = default_chunk_instances) program behavior ~rng ~flush
    ~finish =
  if chunk_instances < 1 then
    invalid_arg "Recorder.record_chunked: chunk_instances must be >= 1";
  let table = Path_table.create () in
  let chunk = buffer ~cap:chunk_instances in
  let total = ref 0 in
  let flush_chunk () =
    if chunk.b_len > 0 then begin
      flush ~table ~ids:chunk.b_ids ~arrivals:chunk.b_arrivals ~len:chunk.b_len;
      chunk.b_len <- 0
    end
  in
  let vm_stats =
    drive ?max_steps ?max_paths ?max_stack program behavior ~rng ~table
      ~on_path:(fun id arrival ->
          push chunk id arrival;
          incr total;
          if chunk.b_len = chunk_instances then flush_chunk ())
  in
  (* A path cut off by fuel (or by [max_paths]) is discarded: a truncated
     prefix is not a completed path, and because non-branch transfers add
     no signature bits it could collide with a genuine path that continues
     through a jump chain.  Paths ended by program exit were yielded by the
     segmenter inside the loop. *)
  flush_chunk ();
  finish ~table ~vm_stats;
  { cs_instances = !total; cs_paths = Path_table.size table; cs_vm_stats = vm_stats }

let record ?max_steps ?max_paths ?max_stack program behavior ~rng =
  let table = Path_table.create () in
  let all = buffer ~cap:max_int in
  let vm_stats =
    drive ?max_steps ?max_paths ?max_stack program behavior ~rng ~table
      ~on_path:(push all)
  in
  {
    program;
    table;
    instances = Array.sub all.b_ids 0 all.b_len;
    arrivals = Bytes.sub all.b_arrivals 0 all.b_len;
    vm_stats;
  }

(* Every check a loaded recording needs is one of the linter's: ids
   in the table (T201), one valid arrival byte per instance (T202),
   path blocks inside the program (T203) and the program itself (the
   structural pass, which rejects whatever [Cfg.validate] does). *)
let of_parts ~program ~table ~instances ~arrivals ~vm_stats =
  match
    List.find_opt
      (fun d -> d.Diag.severity = Diag.Error)
      (Lint.check_parts ~program ~table ~instances ~arrivals)
  with
  | Some d -> Error (Diag.to_string d)
  | None -> Ok { program; table; instances; arrivals; vm_stats }

let lint t =
  Lint.check_parts ~program:t.program ~table:t.table ~instances:t.instances
    ~arrivals:t.arrivals

let num_instances t = Array.length t.instances

let num_paths t = Path_table.size t.table

let instance_path t i = Path_table.path t.table t.instances.(i)

let arrival t i = Path.arrival_kind (Bytes.get t.arrivals i)

let frequencies t =
  let freq = Array.make (Path_table.size t.table) 0 in
  Array.iter (fun id -> freq.(id) <- freq.(id) + 1) t.instances;
  freq

let head_arrival_counts t =
  let counts = Hashtbl.create 64 in
  Array.iteri
    (fun i id ->
       if arrival t i = Path.Loop_head then begin
         let head = Path.head (Path_table.path t.table id) in
         let prev = Option.value ~default:0 (Hashtbl.find_opt counts head) in
         Hashtbl.replace counts head (prev + 1)
       end)
    t.instances;
  counts

let unique_loop_heads t = Hashtbl.length (head_arrival_counts t)

let block_trace t =
  List.concat_map
    (fun id -> Array.to_list (Path_table.path t.table id).Path.blocks)
    (Array.to_list t.instances)
