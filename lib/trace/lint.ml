module Cfg = Hotpath_cfg.Cfg
module Diag = Hotpath_analysis.Diag
module Bounds = Hotpath_analysis.Bounds

(* Per-path facts the instance-stream walk needs about the *previous*
   instance's path: its last block, whether a call on the path is still
   unreturned at the end (the next return is matched), the return_to of
   the most recent such call, and — for branch-ended paths — which arm
   the final signature bit selects. *)
type path_facts = {
  mutable f_ok : bool;  (* structure sound; instance checks may use it *)
  mutable f_head : int;
  mutable f_last : int;
  mutable f_matched : bool;  (* unreturned on-path call at path end *)
  mutable f_last_push : int;  (* return_to of the most recent on-path call *)
  mutable f_arm : int;  (* final-bit branch arm when the last block is a Branch *)
  mutable f_capped : bool;  (* path carries max_branches signature bits *)
}

let fresh_facts () =
  { f_ok = false; f_head = -1; f_last = -1; f_matched = false;
    f_last_push = -1; f_arm = -1; f_capped = false }

let ret_targets_of program =
  Array.init (Cfg.num_procs program) (fun q ->
      Array.of_list (Cfg.return_targets program q))

(* Per-path structural and transfer-legality checks; fills [f] and emits
   diagnostics through [add]. *)
let lint_path program ret_targets ~n_blocks add (p : Path.t) f =
  let id = p.Path.id in
  let loc = Diag.Path id in
  let blocks = p.Path.blocks in
  let n = Array.length blocks in
  if n = 0 then add (Diag.error ~code:"T203" ~loc "empty block sequence")
  else if Array.exists (fun b -> b < 0 || b >= n_blocks) blocks then
    add (Diag.error ~code:"T203" ~loc "block outside the program")
  else begin
    f.f_ok <- true;
    f.f_head <- blocks.(0);
    f.f_last <- blocks.(n - 1);
    if Signature.head p.Path.signature <> blocks.(0) then begin
      f.f_ok <- false;
      add
        (Diag.error ~code:"T203" ~loc
           "signature head %d differs from first block %d"
           (Signature.head p.Path.signature) blocks.(0))
    end;
    let calls = ref 0 and last_push = ref (-1) in
    let nb = ref 0 and instrs = ref 0 in
    for i = 0 to n - 1 do
      let u = blocks.(i) in
      let bu = Cfg.block program u in
      instrs := !instrs + bu.Cfg.weight;
      (match bu.Cfg.term with Cfg.Branch _ -> incr nb | _ -> ());
      (match bu.Cfg.term with
       | Cfg.Call { return_to; _ } ->
         incr calls;
         last_push := return_to
       | _ -> ());
      if i < n - 1 then begin
        let v = blocks.(i + 1) in
        let bad fmt =
          Printf.ksprintf
            (fun s ->
               f.f_ok <- false;
               add (Diag.error ~code:"T204" ~loc "%s" s))
            fmt
        in
        if v <= u then bad "backward transfer %d -> %d inside a path" u v
        else begin
          match bu.Cfg.term with
          | Cfg.Branch { taken; fallthrough } ->
            if v <> taken && v <> fallthrough then
              bad "%d -> %d matches neither branch arm" u v
          | Cfg.Jump t -> if v <> t then bad "%d -> %d is not the jump target" u v
          | Cfg.Indirect ts ->
            if not (Array.exists (fun t -> t = v) ts) then
              bad "%d -> %d is not an indirect target" u v
          | Cfg.Call { callee; _ } ->
            if v <> (Cfg.proc program callee).Cfg.entry then
              bad "%d -> %d is not the entry of callee %d" u v callee
            (* the push above models this call *)
          | Cfg.Return ->
            (* A return matching an on-path call ends the path, so a
               continuing return must be unmatched (crossing), and
               forward into some caller's return_to. *)
            if !calls > 0 then bad "continues past a matched return at %d" u
            else if
              not (Array.exists (fun t -> t = v) ret_targets.(bu.Cfg.proc))
            then bad "%d -> %d is not a caller's return_to" u v
          | Cfg.Exit -> bad "continues past exit at %d" u
        end
      end
    done;
    f.f_matched <- !calls > 0;
    f.f_last_push <- !last_push;
    f.f_capped <- !nb = Signature.max_branches;
    if !nb <> p.Path.n_branches then
      add
        (Diag.warning ~code:"T210" ~loc
           "stored n_branches %d, program implies %d" p.Path.n_branches !nb);
    if !instrs <> p.Path.n_instrs then
      add
        (Diag.warning ~code:"T210" ~loc "stored n_instrs %d, program implies %d"
           p.Path.n_instrs !instrs);
    (* The final signature bit selects the ending arm of a
       branch-terminated path (the segmenter records the bit before
       deciding whether the transfer ends the path). *)
    let last_term = (Cfg.block program f.f_last).Cfg.term in
    (match last_term with
     | Cfg.Branch { taken; fallthrough } ->
       let bits = Signature.length p.Path.signature in
       if bits > 0 then
         f.f_arm <-
           (if Signature.bit p.Path.signature (bits - 1) then taken
            else fallthrough)
     | _ -> ());
    if f.f_ok then begin
      let last = f.f_last in
      let plausible =
        match p.Path.end_kind with
        | Path.Matched_return ->
          (match last_term with Cfg.Return -> f.f_matched | _ -> false)
        | Path.Cap ->
          (match last_term with
           | Cfg.Branch _ ->
             !nb = Signature.max_branches && f.f_arm > last
           | _ -> false)
        | Path.Program_end ->
          (match last_term with
           | Cfg.Exit -> true
           | Cfg.Return -> not f.f_matched
           | _ -> false)
        | Path.Backward_transfer -> (
            match last_term with
            | Cfg.Branch _ -> f.f_arm <> -1 && f.f_arm <= last
            | Cfg.Jump t -> t <= last
            | Cfg.Indirect ts -> Array.exists (fun t -> t <= last) ts
            | Cfg.Call { callee; _ } ->
              (Cfg.proc program callee).Cfg.entry <= last
            | Cfg.Return ->
              if f.f_matched then f.f_last_push <= last
              else
                Array.exists
                  (fun t -> t <= last)
                  ret_targets.((Cfg.block program last).Cfg.proc)
            | Cfg.Exit -> false)
      in
      if not plausible then
        add
          (Diag.error ~code:"T205" ~loc
             "end kind %s impossible for last block %d"
             (Path.end_kind_to_string p.Path.end_kind)
             last)
    end
  end

(* The very first instance of a trace: expected to be an entry arrival at
   the program's entry block (warning only — partial traces and
   hand-built fixtures legitimately start elsewhere). *)
let lint_first program add f0 a0 =
  if
    f0.f_ok
    && not (Path.arrival_kind a0 = Path.Entry
            && f0.f_head = Cfg.entry_block program)
  then
    add
      (Diag.warning ~code:"T206" ~loc:(Diag.Instance 0)
         "trace does not begin with an entry arrival at block %d"
         (Cfg.entry_block program))

(* One inter-instance hand-off: the previous instance's path ends, the
   current one begins with (valid) arrival byte [a] at global instance
   index [i].  Batch boundaries are invisible because the only carried
   state is the previous path's facts. *)
let lint_step program heads ret_targets add ~prev ~cur ~a ~i =
  if prev.f_ok && cur.f_ok then begin
    let h = cur.f_head and pl = prev.f_last in
    let loc = Diag.Instance i in
    (* Can the previous path's ending transfer reach [h]? *)
    let hand_off_possible () =
      match (Cfg.block program pl).Cfg.term with
      | Cfg.Branch _ -> h = prev.f_arm
      | Cfg.Jump t -> h = t
      | Cfg.Indirect ts -> Array.exists (fun t -> t = h) ts
      | Cfg.Call { callee; _ } -> h = (Cfg.proc program callee).Cfg.entry
      | Cfg.Return ->
        if prev.f_matched then h = prev.f_last_push
        else Array.exists (fun t -> t = h) ret_targets.((Cfg.block program pl).Cfg.proc)
      | Cfg.Exit -> false
    in
    match Path.arrival_kind a with
    | Path.Entry ->
      add
        (Diag.error ~code:"T206" ~loc "entry arrival in the middle of the trace")
    | Path.Loop_head ->
      (* Loop head: the hand-off transfer must be backward and the
         head must be a static potential path head. *)
      if h > pl then
        add
          (Diag.error ~code:"T208" ~loc
             "loop-head arrival %d -> %d is a forward transfer" pl h)
      else begin
        if not heads.Bounds.full.(h) then
          add
            (Diag.error ~code:"T208" ~loc
               "head %d is outside the static potential-head set" h);
        if not (hand_off_possible ()) then
          add
            (Diag.error ~code:"T207" ~loc
               "no transfer from %d can reach head %d" pl h)
      end
    | Path.Continuation ->
      (* Continuation: forward, and only after a matched return or a
         capped branch. *)
      if h <= pl then
        add
          (Diag.error ~code:"T209" ~loc
             "continuation arrival %d -> %d is not forward" pl h)
      else begin
        let legal =
          match (Cfg.block program pl).Cfg.term with
          | Cfg.Return -> prev.f_matched && h = prev.f_last_push
          | Cfg.Branch _ -> prev.f_capped && h = prev.f_arm
          | _ -> false
        in
        if not legal then
          add
            (Diag.error ~code:"T209" ~loc
               "continuation %d -> %d follows neither a matched return nor a \
                capped branch"
               pl h)
      end
  end

(* ------------------------------------------------------------------ *)
(* Chunk-wise linting                                                  *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  type linter = {
    i_program : Cfg.program;
    i_table : Path_table.t;
    i_ret_targets : int array array;
    i_heads : Bounds.head_sets;
    i_n_blocks : int;
    mutable i_facts : path_facts array;  (* capacity; [i_synced] live *)
    mutable i_synced : int;
    mutable i_prev : int;  (* path id of the last accepted instance, -1 *)
    mutable i_seen : int;  (* accepted instances so far *)
    i_program_diags : Diag.t list;
  }

  type t = linter

  let create ~program ~table =
    let prog_diags = Hotpath_analysis.Lint.structural program in
    if Diag.has_errors prog_diags then Error prog_diags
    else
      Ok
        {
          i_program = program;
          i_table = table;
          i_ret_targets = ret_targets_of program;
          i_heads = Bounds.static_heads program;
          i_n_blocks = Cfg.num_blocks program;
          i_facts = [||];
          i_synced = 0;
          i_prev = -1;
          i_seen = 0;
          i_program_diags = prog_diags;
        }

  let program_diags t = t.i_program_diags

  let instances t = t.i_seen

  (* Lint every path declared since the last sync, attributing the
     findings to the batch that first made the path reachable. *)
  let sync_paths t add =
    let np = Path_table.size t.i_table in
    if np > t.i_synced then begin
      if np > Array.length t.i_facts then begin
        let cap = max np (max 64 (2 * Array.length t.i_facts)) in
        let facts = Array.init cap (fun _ -> fresh_facts ()) in
        Array.blit t.i_facts 0 facts 0 t.i_synced;
        t.i_facts <- facts
      end;
      for id = t.i_synced to np - 1 do
        lint_path t.i_program t.i_ret_targets ~n_blocks:t.i_n_blocks add
          (Path_table.path t.i_table id)
          t.i_facts.(id)
      done;
      t.i_synced <- np
    end

  let flush_paths t =
    let diags = ref [] in
    sync_paths t (fun d -> diags := d :: !diags);
    List.rev !diags

  (* Lint one batch: newly declared paths, the batch's ids and arrival
     codes, then every hand-off including the seam from the previous
     batch. *)
  let check_batch t (b : Batch.t) =
    let n = Batch.length b in
    let ids = b.Batch.ids and arrs = b.Batch.arrs in
    let diags = ref [] in
    let add d = diags := d :: !diags in
    sync_paths t add;
    let containers_ok = ref true in
    for j = 0 to n - 1 do
      let id = ids.(j) in
      if id < 0 || id >= t.i_synced then begin
        containers_ok := false;
        add
          (Diag.error ~code:"T201" ~loc:(Diag.Instance (t.i_seen + j))
             "path id %d outside table of %d paths" id t.i_synced)
      end
    done;
    for j = 0 to n - 1 do
      let c = Char.code (Bytes.get arrs j) in
      if c > 2 then begin
        containers_ok := false;
        add
          (Diag.error ~code:"T202" ~loc:(Diag.Instance (t.i_seen + j))
             "invalid arrival code %d" c)
      end
    done;
    if !containers_ok then begin
      let prev = ref t.i_prev in
      for j = 0 to n - 1 do
        let i = t.i_seen + j in
        let cur = ids.(j) in
        if i = 0 then lint_first t.i_program add t.i_facts.(cur) (Bytes.get arrs 0)
        else
          lint_step t.i_program t.i_heads t.i_ret_targets add
            ~prev:t.i_facts.(!prev) ~cur:t.i_facts.(cur)
            ~a:(Bytes.get arrs j) ~i;
        prev := cur
      done;
      let out = List.rev !diags in
      (* Commit the seam state only when the batch is clean: a rejected
         batch leaves the linter (and therefore the caller's session)
         exactly where it was. *)
      if not (Diag.has_errors out) then begin
        t.i_prev <- !prev;
        t.i_seen <- t.i_seen + n
      end;
      out
    end
    else List.rev !diags
end

(* A whole recording is one batch over its own arrays, so it is judged
   by exactly the walk a session's batches get. *)
let check_parts ~program ~table ~instances ~arrivals =
  match Incremental.create ~program ~table with
  | Error diags -> diags
  | Ok t ->
    let n = Array.length instances in
    let stream =
      if Bytes.length arrivals = n then
        Incremental.check_batch t { Batch.n; ids = instances; arrs = arrivals }
      else
        (* No batch can hold the parts: lint the table alone. *)
        let paths = Incremental.flush_paths t in
        paths
        @ [
          Diag.error ~code:"T202" ~loc:Diag.Program
            "arrivals length %d differs from instance count %d"
            (Bytes.length arrivals) n;
        ]
    in
    let late = Incremental.flush_paths t in
    Incremental.program_diags t @ stream @ late
