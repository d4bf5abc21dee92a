open Hotpath_cfg

let default_max_k = 3

let default_budget = 4096

type choice = {
  head : Cfg.block_id;
  k : int;
  iterations : float;
  body_paths : Bounds.count;
}

type t = {
  by_head : (Cfg.block_id, choice) Hashtbl.t;
  choices : choice list;
  max_selected : int;
}

(* Branching-factor product over the loop body — the saturating proxy
   for the number of acyclic iteration paths the window interner can
   see from this head. *)
let body_paths prog body =
  List.fold_left
    (fun acc b ->
       match (Cfg.block prog b).Cfg.term with
       | Cfg.Branch { taken; fallthrough } when taken <> fallthrough ->
         Bounds.count_mul ~cap:Bounds.default_cap acc (Bounds.Exact 2)
       | Cfg.Indirect targets ->
         let n = List.length (List.sort_uniq compare (Array.to_list targets)) in
         if n > 1 then
           Bounds.count_mul ~cap:Bounds.default_cap acc (Bounds.Exact n)
         else acc
       | _ -> acc)
    (Bounds.Exact 1) body

let pick ~max_k ~budget ~iterations ~paths =
  let rec windows k acc =
    if k = 0 then acc else windows (k - 1) (Bounds.count_mul ~cap:Bounds.default_cap acc paths)
  in
  let rec go k =
    if k <= 1 then 1
    else if
      iterations >= 2.0 *. float_of_int k
      && Bounds.count_le (windows k (Bounds.Exact 1)) (Bounds.Exact budget)
    then k
    else go (k - 1)
  in
  go max_k

let analyze ?(max_k = default_max_k) ?(budget = default_budget) freq =
  if max_k < 1 then invalid_arg "Kselect.analyze: max_k must be >= 1";
  let prog = Freq.program freq in
  let by_head = Hashtbl.create 64 in
  let choices = ref [] in
  let max_selected = ref 1 in
  Cfg.iter_procs
    (fun proc ->
       let pf = Freq.of_proc freq proc.Cfg.pid in
       List.iter
         (fun (l : Loops.loop) ->
            let cp =
              Option.value ~default:0.0 (Freq.cyclic_prob pf l.Loops.head)
            in
            let iterations = 1.0 /. (1.0 -. cp) in
            let paths = body_paths prog l.Loops.blocks in
            let k = pick ~max_k ~budget ~iterations ~paths in
            let c = { head = l.Loops.head; k; iterations; body_paths = paths } in
            Hashtbl.replace by_head l.Loops.head c;
            choices := c :: !choices;
            if k > !max_selected then max_selected := k)
         (Loops.loops (Freq.loops pf)))
    prog;
  {
    by_head;
    choices = List.sort (fun a b -> compare a.head b.head) !choices;
    max_selected = !max_selected;
  }

let k_for t head =
  match Hashtbl.find_opt t.by_head head with Some c -> c.k | None -> 1

let choices t = t.choices

let max_selected t = t.max_selected
