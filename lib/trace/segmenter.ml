module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm

type t = {
  table : Path_table.t;
  weights : int array;  (* per block *)
  signature : Signature.Builder.t;
  mutable blocks : Cfg.block_id array;  (* [0, n_blocks) is the partial path *)
  mutable n_blocks : int;
  mutable n_instrs : int;
  mutable calls_on_path : int;
  mutable arrival : Path.head_kind;  (* of the partial path *)
  mutable completed_arrival : Path.head_kind;
  mutable exited : bool;
}

let create program table =
  let entry = Cfg.entry_block program in
  let weights = Array.map (fun (b : Cfg.block) -> b.Cfg.weight) program.Cfg.blocks in
  let blocks = Array.make 64 0 in
  blocks.(0) <- entry;
  {
    table;
    weights;
    signature = Signature.Builder.create ~head:entry;
    blocks;
    n_blocks = 1;
    n_instrs = weights.(entry);
    calls_on_path = 0;
    arrival = Path.Entry;
    completed_arrival = Path.Entry;
    exited = false;
  }

let in_flight_blocks t = t.n_blocks

let grow_blocks t =
  let grown = Array.make (2 * t.n_blocks) 0 in
  Array.blit t.blocks 0 grown 0 t.n_blocks;
  t.blocks <- grown

let[@inline] append t b =
  if t.n_blocks = Array.length t.blocks then grow_blocks t;
  Array.unsafe_set t.blocks t.n_blocks b;
  t.n_blocks <- t.n_blocks + 1;
  t.n_instrs <- t.n_instrs + t.weights.(b)

(* End the partial path: intern it, then start the next one at the
   transfer's destination (none after program exit). *)
let complete t (c : Vm.cursor) end_kind =
  let id =
    Path_table.intern_builder t.table t.signature ~blocks:t.blocks
      ~n_blocks:t.n_blocks ~n_instrs:t.n_instrs ~end_kind
  in
  t.completed_arrival <- t.arrival;
  let dst = c.Vm.dst in
  if dst < 0 then begin
    t.exited <- true;
    t.n_blocks <- 0
  end
  else begin
    Signature.Builder.reset t.signature ~head:dst;
    t.blocks.(0) <- dst;
    t.n_blocks <- 1;
    t.n_instrs <- t.weights.(dst);
    t.calls_on_path <- 0;
    t.arrival <- (if c.Vm.backward then Path.Loop_head else Path.Continuation)
  end;
  id

let feed_cursor t (c : Vm.cursor) =
  if t.exited then invalid_arg "Segmenter.run: program already exited";
  let kind = c.Vm.kind in
  (match kind with
   | Vm.T_branch -> Signature.Builder.add_branch t.signature ~taken:c.Vm.taken
   | Vm.T_indirect -> Signature.Builder.add_indirect t.signature ~target:c.Vm.dst
   | Vm.T_call -> t.calls_on_path <- t.calls_on_path + 1
   | Vm.T_return | Vm.T_jump | Vm.T_exit -> ());
  let matched_return = kind = Vm.T_return && t.calls_on_path > 0 in
  if matched_return then t.calls_on_path <- t.calls_on_path - 1;
  if kind = Vm.T_exit then complete t c Path.Program_end
  else if c.Vm.backward then complete t c Path.Backward_transfer
  else if matched_return then complete t c Path.Matched_return
  else if
    kind = Vm.T_branch
    && Signature.Builder.branch_count t.signature = Signature.max_branches
  then complete t c Path.Cap
  else begin
    (* A crossed (forward, unmatched) return is an indirect branch: its
       dynamic target disambiguates paths from shared callees. *)
    if kind = Vm.T_return then
      Signature.Builder.add_indirect t.signature ~target:c.Vm.dst;
    append t c.Vm.dst;
    -1
  end

let run ?(max_steps = max_int) ?(max_paths = max_int) t vm ~on_path =
  let c = Vm.cursor vm in
  (* [steps] blocks may still execute before the fuel runs out. *)
  let rec loop ~steps ~paths =
    if paths >= max_paths || steps <= 0 then `Fuel
    else if not (Vm.step vm) then `Exited
    else begin
      let id = feed_cursor t c in
      let paths =
        if id >= 0 then begin
          on_path id t.completed_arrival;
          paths + 1
        end
        else paths
      in
      if c.Vm.kind = Vm.T_exit then `Exited else loop ~steps:(steps - 1) ~paths
    end
  in
  loop ~steps:(max_steps - Vm.blocks_executed vm) ~paths:0
