module Cfg = Hotpath_cfg.Cfg

type kind = T_branch | T_jump | T_indirect | T_call | T_return | T_exit

type cursor = {
  mutable src : Cfg.block_id;
  mutable kind : kind;
  mutable taken : bool;
  mutable dst : Cfg.block_id;
  mutable backward : bool;
}

type t = {
  program : Cfg.program;
  decider : Behavior.Decider.t;
  limit : int;  (* call-depth bound *)
  mutable stack : Cfg.block_id array;  (* return-to blocks, [0, depth) live *)
  mutable depth : int;
  mutable current : Cfg.block_id;  (* -1 after exit *)
  mutable executed : int;
  cursor : cursor;  (* the transfer made by the last [step] *)
  (* Run counters. *)
  mutable branches : int;
  mutable calls : int;
  mutable returns : int;
  mutable indirects : int;
  mutable backward_transfers : int;
  mutable max_depth : int;
}

let create ?(max_stack = 10_000) program behavior ~rng =
  (match Cfg.validate program with
   | Ok () -> ()
   | Error e -> invalid_arg ("Vm.create: invalid program: " ^ e));
  (match Behavior.validate behavior with
   | Ok () -> ()
   | Error e -> invalid_arg ("Vm.create: invalid behavior: " ^ e));
  {
    program;
    decider = Behavior.Decider.create behavior ~rng;
    limit = max_stack;
    stack = Array.make 16 0;
    depth = 0;
    current = Cfg.entry_block program;
    executed = 0;
    cursor = { src = -1; kind = T_exit; taken = false; dst = -1; backward = false };
    branches = 0;
    calls = 0;
    returns = 0;
    indirects = 0;
    backward_transfers = 0;
    max_depth = 0;
  }

let blocks_executed t = t.executed

let cursor t = t.cursor

let[@inline] transfer t src kind dst =
  let backward = dst >= 0 && Cfg.is_backward t.program ~src ~dst in
  if backward then t.backward_transfers <- t.backward_transfers + 1;
  let c = t.cursor in
  c.src <- src;
  c.kind <- kind;
  c.dst <- dst;
  c.backward <- backward;
  t.current <- dst

let push t return_to =
  if t.depth >= t.limit then
    failwith
      (Printf.sprintf "Vm.step: call-stack overflow (depth %d) at block %d" t.limit
         t.current);
  if t.depth = Array.length t.stack then begin
    let grown = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 grown 0 t.depth;
    t.stack <- grown
  end;
  t.stack.(t.depth) <- return_to;
  t.depth <- t.depth + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth

let step t =
  let src = t.current in
  if src < 0 then false
  else begin
    let step = t.executed + 1 in
    t.executed <- step;
    (match t.program.Cfg.blocks.(src).Cfg.term with
     | Cfg.Branch { taken; fallthrough } ->
       let outcome = Behavior.Decider.decide_branch t.decider src ~step in
       t.cursor.taken <- outcome;
       t.branches <- t.branches + 1;
       transfer t src T_branch (if outcome then taken else fallthrough)
     | Cfg.Jump dst -> transfer t src T_jump dst
     | Cfg.Indirect targets ->
       t.indirects <- t.indirects + 1;
       transfer t src T_indirect
         (Behavior.Decider.decide_indirect t.decider src ~targets ~step)
     | Cfg.Call { callee; return_to } ->
       push t return_to;
       t.calls <- t.calls + 1;
       transfer t src T_call t.program.Cfg.procs.(callee).Cfg.entry
     | Cfg.Return ->
       if t.depth = 0 then transfer t src T_exit (-1)
       else begin
         t.depth <- t.depth - 1;
         t.returns <- t.returns + 1;
         transfer t src T_return t.stack.(t.depth)
       end
     | Cfg.Exit -> transfer t src T_exit (-1));
    true
  end

type run_stats = {
  reason : [ `Exited | `Fuel ];
  blocks : int;
  branches : int;
  calls : int;
  returns : int;
  indirects : int;
  backward_transfers : int;
  max_stack : int;
}

let stats t ~reason =
  {
    reason;
    blocks = t.executed;
    branches = t.branches;
    calls = t.calls;
    returns = t.returns;
    indirects = t.indirects;
    backward_transfers = t.backward_transfers;
    max_stack = t.max_depth;
  }

let pp_run_stats ppf s =
  Format.fprintf ppf
    "@[<h>%s: blocks=%d branches=%d calls=%d returns=%d indirects=%d backward=%d \
     max_stack=%d@]"
    (match s.reason with `Exited -> "exited" | `Fuel -> "fuel")
    s.blocks s.branches s.calls s.returns s.indirects s.backward_transfers s.max_stack

let run ?(max_steps = max_int) t ~on_transfer =
  let rec loop () =
    if t.executed >= max_steps then `Fuel
    else if step t then begin
      on_transfer t;
      loop ()
    end
    else `Exited
  in
  let reason = loop () in
  stats t ~reason
