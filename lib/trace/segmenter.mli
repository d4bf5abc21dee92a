(** Streaming path segmentation.

    Turns the VM's transfer stream into the paper's interprocedural
    forward paths and interns each one into a {!Path_table} the moment it
    completes — the shared core of the offline {!Recorder} and of online
    consumers (the live Dynamo driver), which drive it through {!run}.

    Path-end rules (Section 3 of the paper; see {!Path}): backward taken
    transfers, returns matching an on-path call, the signature cap, and
    program exit.  A forward return the path extends across contributes
    its dynamic target to the signature's indirect list (see DESIGN.md
    §5).

    The partial path lives in one reusable block buffer and one
    {!Signature.Builder}; a completed path is looked up in the table from
    that live state and copied out only when it is new, so segmenting a
    block or completing an already-known path allocates nothing. *)

module Cfg = Hotpath_cfg.Cfg

type t

val create : Cfg.program -> Path_table.t -> t
(** Segmentation state positioned at the program entry (arrival kind
    [Entry]), interning into the given table. *)

val in_flight_blocks : t -> int
(** Blocks accumulated on the current partial path (0 after exit). *)

val run :
  ?max_steps:int ->
  ?max_paths:int ->
  t ->
  Hotpath_vm.Vm.t ->
  on_path:(int -> Path.head_kind -> unit) ->
  [ `Exited | `Fuel ]
(** The VM -> segmenter -> intern loop: step the VM and feed every
    transfer until the program exits ([`Exited]) or either budget is
    spent ([`Fuel]): [max_steps] executed blocks (counted on the VM) or
    [max_paths] completed instances (counted by this call).  [on_path id
    arrival] sees every completed instance in order.  A path cut off by a
    budget is not reported.  The segmenter yields the final path at
    program exit; running it again on a VM that still steps is rejected.
    @raise Invalid_argument when fed a transfer past program exit. *)
