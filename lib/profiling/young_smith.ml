module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm

type window = { w_branches : (Cfg.block_id * bool) array }

let window_to_string w =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun (b, taken) -> Printf.sprintf "(B%d:%d)" b (Bool.to_int taken))
          w.w_branches))

type t = {
  size : int;
  fifo : (Cfg.block_id * bool) array;  (* ring buffer *)
  mutable next : int;  (* ring insertion point *)
  mutable seen : int;  (* total branches observed *)
  table : (window, int) Hashtbl.t;
}

let create ~k =
  if k < 1 || k > 32 then invalid_arg "Young_smith.create: k must be in [1,32]";
  { size = k; fifo = Array.make k (0, false); next = 0; seen = 0; table = Hashtbl.create 256 }

let k t = t.size

let current_window t =
  (* Oldest-first snapshot of the ring. *)
  { w_branches = Array.init t.size (fun i -> t.fifo.((t.next + i) mod t.size)) }

let on_transfer t vm =
  let c = Vm.cursor vm in
  match c.Vm.kind with
  | Vm.T_branch ->
    t.fifo.(t.next) <- (c.Vm.src, c.Vm.taken);
    t.next <- (t.next + 1) mod t.size;
    t.seen <- t.seen + 1;
    if t.seen >= t.size then begin
      let w = current_window t in
      let prev = Option.value ~default:0 (Hashtbl.find_opt t.table w) in
      Hashtbl.replace t.table w (prev + 1)
    end
  | Vm.T_jump | Vm.T_indirect | Vm.T_call | Vm.T_return | Vm.T_exit -> ()

let branches_seen t = t.seen

let counts t =
  Hashtbl.fold (fun w c acc -> (w, c) :: acc) t.table []
  |> List.sort (fun (w1, c1) (w2, c2) ->
      let c = Int.compare c2 c1 in
      if c <> 0 then c else compare w1 w2)

let counter_space t = Hashtbl.length t.table

let top t ~n =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take n (counts t)
