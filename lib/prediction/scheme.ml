module Cfg = Hotpath_cfg.Cfg
module Path = Hotpath_trace.Path

type kernel =
  | Generic
  | Net
  | Net_once
  | Last_executed_tail
  | Path_profile
  | Net_k of int
  | Path_profile_k of int

module type S = sig
  type t

  val name : string

  val kernel : kernel

  val create : program:Cfg.program -> delay:int -> t

  val observe :
    t ->
    head:Cfg.block_id ->
    arrival:Path.head_kind ->
    path_id:int ->
    n_branches:int ->
    n_blocks:int ->
    int option

  val collect : t -> n_blocks:int -> unit

  val counter_space : t -> int

  val profiling_ops : t -> int

  val collection_ops : t -> int
end

type packed = (module S)

let name (module M : S) = M.name

let generic (module M : S) : packed =
  (module struct
    include M

    let kernel = Generic
  end)
