module Cfg = Hotpath_cfg.Cfg
module Recorder = Hotpath_trace.Recorder
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Signature = Hotpath_trace.Signature
module Vec = Hotpath_util.Vec

type outcome = { base : Replay.outcome; phantoms : Signature.t list }

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Walk an executed path and credit each of its branch outcomes and
   indirect targets, recovered from the signature. *)
let update_counts program ~taken_counts ~indirect_counts (p : Path.t) =
  let bit = ref 0 in
  let indirects = ref (Signature.indirect_targets p.Path.signature) in
  let last = Array.length p.Path.blocks - 1 in
  Array.iteri
    (fun i b ->
       match (Cfg.block program b).Cfg.term with
       | Cfg.Branch _ ->
         let taken = Signature.bit p.Path.signature !bit in
         incr bit;
         let t, nt =
           Option.value ~default:(0, 0) (Hashtbl.find_opt taken_counts b)
         in
         Hashtbl.replace taken_counts b (if taken then (t + 1, nt) else (t, nt + 1))
       | Cfg.Indirect _ -> begin
           match !indirects with
           | target :: rest ->
             indirects := rest;
             bump indirect_counts (b, target)
           | [] -> ()
         end
       | Cfg.Return when i < last -> begin
           (* A return the path extended across contributes its dynamic
              target to the signature's indirect list; consume it but do
              not treat it as dispatch statistics (a static construction
              cannot follow it anyway). *)
           match !indirects with
           | _ :: rest -> indirects := rest
           | [] -> ()
         end
       | Cfg.Jump _ | Cfg.Call _ | Cfg.Return | Cfg.Exit -> ())
    p.Path.blocks

let construct program ~taken_counts ~indirect_counts ~head =
  let sigb = Signature.Builder.create ~head in
  let blocks = Vec.create () in
  Vec.push blocks head;
  let return_stack = Vec.create () in
  let rec walk cur =
    let continue_to dst =
      if Cfg.is_backward program ~src:cur ~dst then ()  (* path ends here *)
      else if Signature.Builder.branch_count sigb >= Signature.max_branches then ()
      else begin
        Vec.push blocks dst;
        walk dst
      end
    in
    match (Cfg.block program cur).Cfg.term with
    | Cfg.Branch { taken; fallthrough } ->
      let t, nt = Option.value ~default:(0, 0) (Hashtbl.find_opt taken_counts cur) in
      (* Ties and unseen branches fall through, like a static not-taken
         predictor. *)
      let dir = t > nt in
      if Signature.Builder.branch_count sigb >= Signature.max_branches then ()
      else begin
        Signature.Builder.add_branch sigb ~taken:dir;
        let dst = if dir then taken else fallthrough in
        if Cfg.is_backward program ~src:cur ~dst then ()
        else if Signature.Builder.branch_count sigb >= Signature.max_branches then ()
        else begin
          Vec.push blocks dst;
          walk dst
        end
      end
    | Cfg.Jump dst -> continue_to dst
    | Cfg.Indirect targets ->
      let best = ref targets.(0) and best_count = ref (-1) in
      Array.iter
        (fun target ->
           let c =
             Option.value ~default:0 (Hashtbl.find_opt indirect_counts (cur, target))
           in
           if c > !best_count then begin
             best := target;
             best_count := c
           end)
        targets;
      Signature.Builder.add_indirect sigb ~target:!best;
      continue_to !best
    | Cfg.Call { callee; return_to } ->
      let entry = (Cfg.proc program callee).Cfg.entry in
      if Cfg.is_backward program ~src:cur ~dst:entry then ()  (* recursion head *)
      else begin
        Vec.push return_stack return_to;
        Vec.push blocks entry;
        walk entry
      end
    | Cfg.Return ->
      (* A return matching a call taken on the path ends it; a return with
         no on-path call would need the dynamic stack, which a static
         construction does not have — end there too. *)
      ()
    | Cfg.Exit -> ()
  in
  walk head;
  (Signature.Builder.freeze sigb, Vec.to_array blocks)

let run ~delay (r : Recorder.t) =
  if delay < 1 then invalid_arg "Branch_profile.run: delay must be >= 1";
  let program = r.Recorder.program in
  let table = r.Recorder.table in
  let n_paths = Recorder.num_paths r in
  let paths = Path_table.paths table in
  let taken_counts : (Cfg.block_id, int * int) Hashtbl.t = Hashtbl.create 256 in
  let indirect_counts : (Cfg.block_id * Cfg.block_id, int) Hashtbl.t =
    Hashtbl.create 64
  in
  let head_counters : (Cfg.block_id, int) Hashtbl.t = Hashtbl.create 256 in
  let phantom_set = Hashtbl.create 16 in
  let phantoms = Vec.create () in
  let predicted_at = Array.make n_paths max_int in
  let freq = Array.make n_paths 0 in
  let captured = Array.make n_paths 0 in
  let predictions = Vec.create () in
  let profiled = ref 0
  and captured_total = ref 0
  and ops = ref 0
  and collection = ref 0 in
  let instances = r.Recorder.instances in
  for i = 0 to Array.length instances - 1 do
    let pid = instances.(i) in
    let p = paths.(pid) in
    freq.(pid) <- freq.(pid) + 1;
    if predicted_at.(pid) < i then begin
      captured.(pid) <- captured.(pid) + 1;
      incr captured_total
    end
    else begin
      incr profiled;
      (* Boa profiles every branch of every interpreted path. *)
      update_counts program ~taken_counts ~indirect_counts p;
      ops :=
        !ops + p.Path.n_branches
        + Signature.n_indirects p.Path.signature;
      if Recorder.arrival r i = Path.Loop_head then begin
        let head = Path.head p in
        incr ops;
        let count = 1 + Option.value ~default:0 (Hashtbl.find_opt head_counters head) in
        if count < delay then Hashtbl.replace head_counters head count
        else begin
          Hashtbl.replace head_counters head 0;
          let signature, cblocks =
            construct program ~taken_counts ~indirect_counts ~head
          in
          collection := !collection + Array.length cblocks;
          match Path_table.find table signature with
          | Some target when predicted_at.(target) = max_int ->
            predicted_at.(target) <- i;
            Vec.push predictions { Replay.target; at_instance = i }
          | Some _ -> ()
          | None ->
            if not (Hashtbl.mem phantom_set signature) then begin
              Hashtbl.add phantom_set signature ();
              Vec.push phantoms signature
            end
        end
      end
    end
  done;
  let base =
    {
      Replay.scheme_name = "boa";
      delay;
      total_instances = Array.length instances;
      predictions = Vec.to_array predictions;
      predicted_at;
      freq;
      captured;
      profiled_instances = !profiled;
      captured_instances = !captured_total;
      counter_space =
        Hashtbl.length taken_counts + Hashtbl.length indirect_counts
        + Hashtbl.length head_counters;
      profiling_ops = !ops;
      collection_ops = !collection;
    }
  in
  { base; phantoms = Vec.to_list phantoms }
