module Cfg = Hotpath_cfg.Cfg

type head_kind = Loop_head | Entry | Continuation

type end_kind = Backward_transfer | Matched_return | Cap | Program_end

type t = {
  id : int;
  signature : Signature.t;
  blocks : Cfg.block_id array;
  n_instrs : int;
  n_branches : int;
  end_kind : end_kind;
}

let head t = t.blocks.(0)

let tail t = Array.sub t.blocks 1 (Array.length t.blocks - 1)

let head_kind_to_string = function
  | Loop_head -> "loop-head"
  | Entry -> "entry"
  | Continuation -> "continuation"

let arrival_code = function
  | Loop_head -> '\000'
  | Entry -> '\001'
  | Continuation -> '\002'

let arrival_kind = function
  | '\000' -> Loop_head
  | '\001' -> Entry
  | '\002' -> Continuation
  | c ->
    invalid_arg
      (Printf.sprintf "Path.arrival_kind: bad arrival code %d" (Char.code c))

let end_kind_to_string = function
  | Backward_transfer -> "backward-transfer"
  | Matched_return -> "matched-return"
  | Cap -> "cap"
  | Program_end -> "program-end"

let pp ppf t =
  Format.fprintf ppf "@[<h>path#%d %a blocks=[%s] instrs=%d branches=%d end=%s@]" t.id
    Signature.pp t.signature
    (String.concat ";" (Array.to_list (Array.map string_of_int t.blocks)))
    t.n_instrs t.n_branches
    (end_kind_to_string t.end_kind)

let divergence a b =
  let n = min (Array.length a.blocks) (Array.length b.blocks) in
  let rec scan i =
    if i = n then None
    else if a.blocks.(i) <> b.blocks.(i) then Some i
    else scan (i + 1)
  in
  scan 0
