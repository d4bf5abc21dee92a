type block_id = int
type proc_id = int

type terminator =
  | Branch of { taken : block_id; fallthrough : block_id }
  | Jump of block_id
  | Indirect of block_id array
  | Call of { callee : proc_id; return_to : block_id }
  | Return
  | Exit

type block = { id : block_id; proc : proc_id; weight : int; term : terminator }

type proc = { pid : proc_id; name : string; entry : block_id; blocks : block_id array }

type program = { pname : string; blocks : block array; procs : proc array; main : proc_id }

let block p i =
  if i < 0 || i >= Array.length p.blocks then
    invalid_arg (Printf.sprintf "Cfg.block: id %d out of range" i);
  p.blocks.(i)

let proc p i =
  if i < 0 || i >= Array.length p.procs then
    invalid_arg (Printf.sprintf "Cfg.proc: id %d out of range" i);
  p.procs.(i)

let entry_block p = (proc p p.main).entry

let addr (_ : program) (i : block_id) : int = i

(* Typed addresses keep this an integer comparison, not a polymorphic
   compare: the VM calls it on every transfer. *)
let is_backward p ~src ~dst = addr p dst <= addr p src

let successors p i =
  match (block p i).term with
  | Branch { taken; fallthrough } -> [ taken; fallthrough ]
  | Jump t -> [ t ]
  | Indirect targets -> Array.to_list targets
  | Call { return_to; _ } -> [ return_to ]
  | Return | Exit -> []

let num_blocks p = Array.length p.blocks

let num_procs p = Array.length p.procs

let iter_blocks f p = Array.iter f p.blocks

let iter_procs f p = Array.iter f p.procs

let iter_succ f p i =
  match (block p i).term with
  | Branch { taken; fallthrough } ->
    f taken;
    f fallthrough
  | Jump t -> f t
  | Indirect targets -> Array.iter f targets
  | Call { return_to; _ } -> f return_to
  | Return | Exit -> ()

let return_blocks p pid =
  let pr = proc p pid in
  Array.to_list pr.blocks
  |> List.filter (fun b -> match p.blocks.(b).term with Return -> true | _ -> false)

let call_sites p =
  Array.fold_left
    (fun acc b ->
       match b.term with
       | Call { callee; return_to } -> (b.id, callee, return_to) :: acc
       | _ -> acc)
    [] p.blocks
  |> List.rev

let return_targets p pid =
  let targets =
    List.filter_map
      (fun (_, callee, return_to) -> if callee = pid then Some return_to else None)
      (call_sites p)
  in
  List.sort_uniq compare targets

let branch_count p =
  Array.fold_left
    (fun acc b -> match b.term with Branch _ -> acc + 1 | _ -> acc)
    0 p.blocks

let backward_branch_target_count p =
  let is_target = Array.make (Array.length p.blocks) false in
  Array.iter
    (fun b ->
       let mark dst = if is_backward p ~src:b.id ~dst then is_target.(dst) <- true in
       match b.term with
       | Branch { taken; _ } -> mark taken
       | Jump t -> mark t
       | Indirect targets -> Array.iter mark targets
       | Call _ | Return | Exit -> ())
    p.blocks;
  Array.fold_left (fun acc t -> if t then acc + 1 else acc) 0 is_target

let validate p =
  let nblocks = Array.length p.blocks and nprocs = Array.length p.procs in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ok_block i = i >= 0 && i < nblocks in
  let ok_proc i = i >= 0 && i < nprocs in
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    if nblocks = 0 then fail "program has no blocks";
    if nprocs = 0 then fail "program has no procedures";
    if not (ok_proc p.main) then fail "main procedure id %d out of range" p.main;
    Array.iteri
      (fun i pr ->
         if pr.pid <> i then fail "procedure %d has pid %d" i pr.pid;
         if Array.length pr.blocks = 0 then fail "procedure %s has no blocks" pr.name;
         if pr.blocks.(0) <> pr.entry then
           fail "procedure %s: entry %d is not its first block" pr.name pr.entry;
         Array.iter
           (fun b ->
              if not (ok_block b) then fail "procedure %s lists block %d out of range" pr.name b;
              if p.blocks.(b).proc <> i then
                fail "procedure %s lists block %d owned by procedure %d" pr.name b
                  p.blocks.(b).proc)
           pr.blocks)
      p.procs;
    (* A named local function, not a closure per block: validating a
       program allocates nothing unless it fails. *)
    let check_local i b what t =
      if not (ok_block t) then fail "block %d: %s target %d out of range" i what t;
      if p.blocks.(t).proc <> b.proc then
        fail "block %d: %s target %d crosses into procedure %d" i what t
          p.blocks.(t).proc
    in
    for i = 0 to nblocks - 1 do
      let b = p.blocks.(i) in
      if b.id <> i then fail "block %d has id %d" i b.id;
      if not (ok_proc b.proc) then fail "block %d: proc %d out of range" i b.proc;
      if b.weight <= 0 then fail "block %d: non-positive weight %d" i b.weight;
      match b.term with
      | Branch { taken; fallthrough } ->
        check_local i b "taken" taken;
        check_local i b "fallthrough" fallthrough
      | Jump t -> check_local i b "jump" t
      | Indirect targets ->
        if Array.length targets = 0 then fail "block %d: indirect with no targets" i;
        Array.iter (check_local i b "indirect") targets
      | Call { callee; return_to } ->
        if not (ok_proc callee) then fail "block %d: callee %d out of range" i callee;
        check_local i b "return_to" return_to
      | Return | Exit -> ()
    done;
    Ok ()
  with Bad msg -> err "%s" msg

let validate_exn p =
  match validate p with
  | Ok () -> p
  | Error msg -> invalid_arg ("Cfg.validate: " ^ msg)

let pp_terminator ppf = function
  | Branch { taken; fallthrough } ->
    Format.fprintf ppf "branch taken->%d fall->%d" taken fallthrough
  | Jump t -> Format.fprintf ppf "jump %d" t
  | Indirect targets ->
    Format.fprintf ppf "indirect [%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int targets)))
  | Call { callee; return_to } -> Format.fprintf ppf "call p%d ret->%d" callee return_to
  | Return -> Format.pp_print_string ppf "return"
  | Exit -> Format.pp_print_string ppf "exit"

let pp_block ppf b =
  Format.fprintf ppf "B%d[p%d w%d] %a" b.id b.proc b.weight pp_terminator b.term

let pp_program ppf p =
  Format.fprintf ppf "program %s (main=p%d)@." p.pname p.main;
  Array.iter
    (fun pr ->
       Format.fprintf ppf "proc p%d %s entry=B%d@." pr.pid pr.name pr.entry;
       Array.iter (fun b -> Format.fprintf ppf "  %a@." pp_block p.blocks.(b)) pr.blocks)
    p.procs

let to_dot p =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph %S {\n  node [shape=box,fontname=monospace];\n" p.pname;
  Array.iter
    (fun procedure ->
       pr "  subgraph cluster_p%d {\n    label=%S;\n" procedure.pid procedure.name;
       Array.iter
         (fun b -> pr "    b%d [label=\"B%d (w=%d)\"];\n" b b (p.blocks.(b)).weight)
         procedure.blocks;
       pr "  }\n")
    p.procs;
  Array.iter
    (fun b ->
       let edge ?(attrs = []) dst =
         let attrs =
           if is_backward p ~src:b.id ~dst then "style=bold,color=red" :: attrs
           else attrs
         in
         let attr_str =
           match attrs with [] -> "" | l -> Printf.sprintf " [%s]" (String.concat "," l)
         in
         pr "  b%d -> b%d%s;\n" b.id dst attr_str
       in
       match b.term with
       | Branch { taken; fallthrough } ->
         edge ~attrs:[ "label=T" ] taken;
         edge ~attrs:[ "label=F" ] fallthrough
       | Jump t -> edge t
       | Indirect targets -> Array.iter (fun t -> edge ~attrs:[ "label=I" ] t) targets
       | Call { callee; return_to } ->
         pr "  b%d -> b%d [style=dashed,label=\"call p%d\"];\n" b.id
           (p.procs.(callee)).entry callee;
         edge ~attrs:[ "style=dotted"; "label=ret-to" ] return_to
       | Return | Exit -> ())
    p.blocks;
  pr "}\n";
  Buffer.contents buf

module Builder = struct
  module Vec = Hotpath_util.Vec

  type pending_proc = { bname : string; bblocks : int Vec.t }

  type t = {
    name : string;
    pblocks : block Vec.t;
    pprocs : pending_proc Vec.t;
  }

  let create ~name = { name; pblocks = Vec.create (); pprocs = Vec.create () }

  let add_proc t ~name =
    Vec.push t.pprocs { bname = name; bblocks = Vec.create () };
    Vec.length t.pprocs - 1

  let add_block t ~proc ~weight =
    if proc < 0 || proc >= Vec.length t.pprocs then
      invalid_arg "Cfg.Builder.add_block: unknown procedure";
    let id = Vec.length t.pblocks in
    Vec.push t.pblocks { id; proc; weight; term = Exit };
    Vec.push (Vec.get t.pprocs proc).bblocks id;
    id

  let set_term t b term =
    if b < 0 || b >= Vec.length t.pblocks then
      invalid_arg "Cfg.Builder.set_term: unknown block";
    let old = Vec.get t.pblocks b in
    Vec.set t.pblocks b { old with term }

  let finish t =
    let blocks = Vec.to_array t.pblocks in
    let procs =
      Array.mapi
        (fun pid pending ->
           let blocks = Vec.to_array pending.bblocks in
           if Array.length blocks = 0 then
             invalid_arg
               (Printf.sprintf "Cfg.Builder.finish: procedure %s has no blocks"
                  pending.bname);
           { pid; name = pending.bname; entry = blocks.(0); blocks })
        (Vec.to_array t.pprocs)
    in
    validate_exn { pname = t.name; blocks; procs; main = 0 }
end
