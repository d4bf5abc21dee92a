module Cfg = Hotpath_cfg.Cfg
module Prng = Hotpath_util.Prng

type branch_model =
  | Always of bool
  | Bias of float
  | Correlated of { bits : int; taken_prob : float array }
  | Periodic of bool array
  | Phased of (int * branch_model) array

type indirect_model =
  | Uniform_target
  | Weighted_target of float array
  | Phased_target of (int * float array) array

type t = {
  program : Cfg.program;
  branches : branch_model array;  (* indexed by block id; meaningful for Branch blocks *)
  indirects : indirect_model array;  (* indexed by block id; meaningful for Indirect blocks *)
}

let create program ?(default_branch = Bias 0.5) ?(default_indirect = Uniform_target) () =
  let n = Array.length program.Cfg.blocks in
  {
    program;
    branches = Array.make n default_branch;
    indirects = Array.make n default_indirect;
  }

let set_branch t b model =
  match (Cfg.block t.program b).term with
  | Cfg.Branch _ -> t.branches.(b) <- model
  | _ -> invalid_arg (Printf.sprintf "Behavior.set_branch: block %d is not a branch" b)

let set_indirect t b model =
  match (Cfg.block t.program b).term with
  | Cfg.Indirect _ -> t.indirects.(b) <- model
  | _ ->
    invalid_arg (Printf.sprintf "Behavior.set_indirect: block %d is not indirect" b)

let branch_model t b = t.branches.(b)

let indirect_model t b = t.indirects.(b)

let prob_ok p = p >= 0.0 && p <= 1.0

let rec branch_model_ok = function
  | Always _ -> Ok ()
  | Bias p -> if prob_ok p then Ok () else Error "Bias probability out of [0,1]"
  | Correlated { bits; taken_prob } ->
    if bits <= 0 || bits > 16 then Error "Correlated bits out of (0,16]"
    else if Array.length taken_prob <> 1 lsl bits then
      Error "Correlated table length is not 2^bits"
    else if not (Array.for_all prob_ok taken_prob) then
      Error "Correlated probability out of [0,1]"
    else Ok ()
  | Periodic pattern ->
    if Array.length pattern = 0 then Error "Periodic pattern is empty" else Ok ()
  | Phased schedule ->
    if Array.length schedule = 0 then Error "Phased schedule is empty"
    else begin
      let ascending = ref true in
      Array.iteri
        (fun i (threshold, _) ->
           if i > 0 && threshold <= fst schedule.(i - 1) then ascending := false)
        schedule;
      if not !ascending then Error "Phased thresholds not ascending"
      else
        Array.fold_left
          (fun acc (_, m) -> match acc with Error _ -> acc | Ok () -> branch_model_ok m)
          (Ok ()) schedule
    end

let weights_ok ~ntargets w =
  if Array.length w <> ntargets then Error "weight vector length mismatch"
  else if not (Array.for_all (fun x -> x >= 0.0) w) then Error "negative weight"
  else if Array.fold_left ( +. ) 0.0 w <= 0.0 then Error "zero total weight"
  else Ok ()

let indirect_model_ok ~ntargets = function
  | Uniform_target -> Ok ()
  | Weighted_target w -> weights_ok ~ntargets w
  | Phased_target schedule ->
    if Array.length schedule = 0 then Error "Phased_target schedule is empty"
    else
      Array.fold_left
        (fun acc (_, w) ->
           match acc with Error _ -> acc | Ok () -> weights_ok ~ntargets w)
        (Ok ()) schedule

let validate t =
  let result = ref (Ok ()) in
  Array.iter
    (fun b ->
       if !result = Ok () then
         match b.Cfg.term with
         | Cfg.Branch _ -> begin
             match branch_model_ok t.branches.(b.Cfg.id) with
             | Ok () -> ()
             | Error e ->
               result := Error (Printf.sprintf "block %d branch model: %s" b.Cfg.id e)
           end
         | Cfg.Indirect targets -> begin
             match indirect_model_ok ~ntargets:(Array.length targets) t.indirects.(b.Cfg.id) with
             | Ok () -> ()
             | Error e ->
               result := Error (Printf.sprintf "block %d indirect model: %s" b.Cfg.id e)
           end
         | Cfg.Jump _ | Cfg.Call _ | Cfg.Return | Cfg.Exit -> ())
    t.program.Cfg.blocks;
  !result

module Decider = struct
  type behavior = t

  (* The models compiled once, at creation.  A probability becomes the
     integer cutoff [Prng.bernoulli] compares a draw with, and a weight
     vector its running sums.  A phased model keeps the index of its
     current phase: the step count only grows, so the phase only
     advances and a decision never rescans the schedule. *)
  type 'a phased = { until : int array; models : 'a array; mutable phase : int }

  type branch =
    | B_always of bool
    | B_bias of int
    | B_correlated of { mask : int; cutoffs : int array }
    | B_periodic of bool array
    | B_phased of branch phased

  type indirect = I_uniform | I_weighted of float array | I_phased of float array phased

  type t = {
    branches : branch array;  (* per block; [B_always false] off branch blocks *)
    indirects : indirect array;  (* per block; [I_uniform] off indirect blocks *)
    rng : Prng.t;
    exec_counts : int array;  (* per-block execution count, drives Periodic *)
    mutable hist : int;
  }

  let phased compile schedule =
    {
      until = Array.map fst schedule;
      models = Array.map (fun (_, m) -> compile m) schedule;
      phase = 0;
    }

  (* The model in force at [step]: the first phase whose threshold
     exceeds it, or the last. *)
  let current ph ~step =
    let last = Array.length ph.until - 1 in
    while ph.phase < last && step >= ph.until.(ph.phase) do
      ph.phase <- ph.phase + 1
    done;
    ph.models.(ph.phase)

  let rec compile_branch = function
    | Always v -> B_always v
    | Bias p -> B_bias (Prng.bernoulli_cutoff ~p)
    | Correlated { bits; taken_prob } ->
      B_correlated
        {
          mask = (1 lsl bits) - 1;
          cutoffs = Array.map (fun p -> Prng.bernoulli_cutoff ~p) taken_prob;
        }
    | Periodic pattern -> B_periodic pattern
    | Phased schedule -> B_phased (phased compile_branch schedule)

  let compile_indirect = function
    | Uniform_target -> I_uniform
    | Weighted_target w -> I_weighted (Prng.cumulative_weights w)
    | Phased_target schedule -> I_phased (phased Prng.cumulative_weights schedule)

  let create (behavior : behavior) ~rng =
    let blocks = behavior.program.Cfg.blocks in
    {
      branches =
        Array.map
          (fun (b : Cfg.block) ->
             match b.Cfg.term with
             | Cfg.Branch _ -> compile_branch behavior.branches.(b.Cfg.id)
             | _ -> B_always false)
          blocks;
      indirects =
        Array.map
          (fun (b : Cfg.block) ->
             match b.Cfg.term with
             | Cfg.Indirect _ -> compile_indirect behavior.indirects.(b.Cfg.id)
             | _ -> I_uniform)
          blocks;
      rng;
      exec_counts = Array.make (Array.length blocks) 0;
      hist = 0;
    }

  let rec eval_branch t b ~step = function
    | B_always v -> v
    | B_bias cutoff -> Prng.bernoulli t.rng ~cutoff
    | B_correlated { mask; cutoffs } ->
      Prng.bernoulli t.rng ~cutoff:cutoffs.(t.hist land mask)
    | B_periodic pattern -> pattern.(t.exec_counts.(b) mod Array.length pattern)
    | B_phased ph -> eval_branch t b ~step (current ph ~step)

  let decide_branch t b ~step =
    let outcome = eval_branch t b ~step t.branches.(b) in
    t.exec_counts.(b) <- t.exec_counts.(b) + 1;
    t.hist <- ((t.hist lsl 1) lor Bool.to_int outcome) land 0xFFFF;
    outcome

  let decide_indirect t b ~targets ~step =
    let idx =
      match t.indirects.(b) with
      | I_uniform -> Prng.int t.rng ~bound:(Array.length targets)
      | I_weighted cumulative -> Prng.pick_cumulative t.rng ~cumulative
      | I_phased ph -> Prng.pick_cumulative t.rng ~cumulative:(current ph ~step)
    in
    t.exec_counts.(b) <- t.exec_counts.(b) + 1;
    targets.(idx)
end
