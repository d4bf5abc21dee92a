open Hotpath_cfg

type heuristic =
  | Loop_branch
  | Loop_exit
  | Loop_header
  | Call
  | Return
  | Pointer_guard
  | Opcode_weight
  | Fallback_not_taken

let name = function
  | Loop_branch -> "loop-branch"
  | Loop_exit -> "loop-exit"
  | Loop_header -> "loop-header"
  | Call -> "call"
  | Return -> "return"
  | Pointer_guard -> "pointer-guard"
  | Opcode_weight -> "opcode-weight"
  | Fallback_not_taken -> "fallback-not-taken"

(* The Wu–Larus table values (Static Branch Frequency and Program
   Profile Analysis, MICRO-27), with the weight proxy at the store
   heuristic's 0.55 and the not-taken fallback at a mild 0.55. *)
let confidence = function
  | Loop_branch -> 0.88
  | Loop_exit -> 0.80
  | Loop_header -> 0.75
  | Call -> 0.78
  | Return -> 0.72
  | Pointer_guard -> 0.60
  | Opcode_weight -> 0.55
  | Fallback_not_taken -> 0.55

let combine p q = p *. q /. ((p *. q) +. ((1.0 -. p) *. (1.0 -. q)))

type branch = {
  br_block : Cfg.block_id;
  br_taken : Cfg.block_id;
  br_fallthrough : Cfg.block_id;
  br_taken_prob : float;
  br_fired : heuristic list;
}

type t = {
  graph : Procgraph.t;
  branches : branch list;
  taken_prob : float array;  (* per local index; meaningful at branches *)
}

let proc_id t = Procgraph.proc_id t.graph

let branches t = t.branches

(* One vote: record the heuristic and combine its evidence, in the
   fixed order the rules run (the evidence rule is order-sensitive in
   floating point). *)
let vote fired prob h taken_favored =
  fired := h :: !fired;
  let c = confidence h in
  prob := combine !prob (if taken_favored then c else 1.0 -. c)

(* Votes for the arm a predicate singles out. *)
let rule fired prob h ~favor taken_has fallthrough_has =
  match (taken_has, fallthrough_has) with
  | true, false -> vote fired prob h favor
  | false, true -> vote fired prob h (not favor)
  | _ -> ()

let rec has_tail src = function
  | [] -> false
  | (t, _) :: rest -> t = src || has_tail src rest

let analyze g loops =
  let p = Procgraph.program g in
  let n = Procgraph.size g in
  let local = Procgraph.local g in
  let ls = Array.of_list (Loops.loops loops) in
  (* Per local block: the loop it heads, and its innermost loop (the
     deepest one holding it), as indices into [ls]. *)
  let heads = Array.make n (-1) and inner = Array.make n (-1) in
  Array.iteri
    (fun i (l : Loops.loop) ->
       heads.(local l.Loops.head) <- i;
       List.iter
         (fun b ->
            let u = local b in
            if inner.(u) < 0 || l.Loops.depth > ls.(inner.(u)).Loops.depth then
              inner.(u) <- i)
         l.Loops.blocks)
    ls;
  let is_head b = heads.(local b) >= 0 in
  let is_back src dst =
    let i = heads.(local dst) in
    i >= 0 && has_tail src ls.(i).Loops.back_edges
  in
  (* Loops holding a block nest with strictly decreasing depth from its
     innermost one, so [b] is in loop [i] iff the parent chain from
     [b]'s innermost loop reaches [i]. *)
  let within i b =
    let d = ls.(i).Loops.depth in
    let j = ref inner.(local b) in
    while !j >= 0 && !j <> i && ls.(!j).Loops.depth > d do
      j := (match ls.(!j).Loops.parent with Some h -> heads.(local h) | None -> -1)
    done;
    !j = i
  in
  let term b = (Cfg.block p b).Cfg.term in
  let is_call x = match term x with Cfg.Call _ -> true | _ -> false in
  let is_ret x = match term x with Cfg.Return -> true | _ -> false in
  let is_ind x = match term x with Cfg.Indirect _ -> true | _ -> false in
  let taken_prob = Array.make n 1.0 in
  let branch_infos = ref [] in
  Array.iteri
    (fun u b ->
       match term b with
       | Cfg.Branch { taken; fallthrough } when taken <> fallthrough ->
         let fired = ref [] and prob = ref 0.5 in
         let rule = rule fired prob in
         (* Loop branch: a back-edge arm is taken. *)
         rule Loop_branch ~favor:true (is_back b taken) (is_back b fallthrough);
         (* Loop exit: the arm staying in the innermost loop around the
            branch wins. *)
         (match inner.(u) with
          | -1 -> ()
          | i -> rule Loop_exit ~favor:true (within i taken) (within i fallthrough));
         (* Loop header: an arm entering a loop (without being its back
            edge) wins. *)
         rule Loop_header ~favor:true
           (is_head taken && not (is_back b taken))
           (is_head fallthrough && not (is_back b fallthrough));
         (* Call / Return: an arm leading straight to a call or a return
            is off the fast path. *)
         rule Call ~favor:false (is_call taken) (is_call fallthrough);
         rule Return ~favor:false (is_ret taken) (is_ret fallthrough);
         (* Pointer guard: an arm reaching an indirect dispatch wins. *)
         rule Pointer_guard ~favor:true (is_ind taken) (is_ind fallthrough);
         (* Weight proxy for the opcode/store content heuristics. *)
         let wt = (Cfg.block p taken).Cfg.weight
         and wf = (Cfg.block p fallthrough).Cfg.weight in
         rule Opcode_weight ~favor:true (wt > wf) (wf > wt);
         if !fired = [] then vote fired prob Fallback_not_taken false;
         (* Evidence keeps probabilities strictly inside (0, 1); the
            clamp guards the frequency propagation against any future
            heuristic that could saturate. *)
         let prob = Float.min 0.99 (Float.max 0.01 !prob) in
         taken_prob.(u) <- prob;
         branch_infos :=
           {
             br_block = b;
             br_taken = taken;
             br_fallthrough = fallthrough;
             br_taken_prob = prob;
             br_fired = List.rev !fired;
           }
           :: !branch_infos
       | _ -> ())
    (Cfg.proc p (Procgraph.proc_id g)).Cfg.blocks;
  { graph = g; branches = List.rev !branch_infos; taken_prob }

let taken_prob t b =
  let p = Procgraph.program t.graph in
  if
    b >= 0 && b < Cfg.num_blocks p
    && (Cfg.block p b).Cfg.proc = proc_id t
    && match (Cfg.block p b).Cfg.term with Cfg.Branch _ -> true | _ -> false
  then t.taken_prob.(Procgraph.local t.graph b)
  else
    invalid_arg
      (Printf.sprintf "Heuristics.taken_prob: block %d is not a branch of proc %d" b
         (proc_id t))

let succ_probs t b =
  let p = Procgraph.program t.graph in
  let blk = Cfg.block p b in
  if blk.Cfg.proc <> proc_id t then
    invalid_arg
      (Printf.sprintf "Heuristics.succ_probs: block %d not in proc %d" b (proc_id t));
  (* Ascending by successor. *)
  match blk.Cfg.term with
  | Cfg.Branch { taken; fallthrough } when taken = fallthrough -> [ (taken, 1.0) ]
  | Cfg.Branch { taken; fallthrough } ->
    let pt = taken_prob t b in
    if taken < fallthrough then [ (taken, pt); (fallthrough, 1.0 -. pt) ]
    else [ (fallthrough, 1.0 -. pt); (taken, pt) ]
  | Cfg.Jump d -> [ (d, 1.0) ]
  | Cfg.Indirect targets ->
    let distinct = List.sort_uniq compare (Array.to_list targets) in
    let u = 1.0 /. float_of_int (List.length distinct) in
    List.map (fun d -> (d, u)) distinct
  | Cfg.Call { return_to; _ } -> [ (return_to, 1.0) ]
  | Cfg.Return | Cfg.Exit -> []
