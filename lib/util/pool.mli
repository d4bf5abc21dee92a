(** Domain-based work pool for experiment fan-out.

    [map ~jobs f xs] applies [f] to every element of [xs], running up to
    [jobs] domains concurrently (the calling domain included), and returns
    the results {e in input order} — parallelism never changes what a
    caller observes, only how fast it arrives.  The worker count is capped
    at {!Domain.recommended_domain_count}, so over-asking on a small
    machine degrades gracefully; [jobs = 1] runs inline with no domain
    machinery at all.

    If a job raises, the remaining queued jobs are abandoned, every worker
    is drained, and the first exception is re-raised in the caller.

    [f] runs on other domains: it must not touch domain-unsafe shared
    mutable state.  The experiment layer's shared recording cache
    ({!Hotpath_experiments.Runs}) is mutex-guarded for exactly this
    caller. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 — a sensible
    [--jobs] default for CPU-bound sweeps.  Honours
    {!with_domain_limit}. *)

val with_domain_limit : int -> (unit -> 'a) -> 'a
(** [with_domain_limit n f] runs [f] with the machine's domain budget
    overridden to [n] (both directions: [1] simulates a single-core
    machine; a large [n] forces real multi-domain fan-out on small CI
    hosts).  Affects {!default_jobs} and capped {!map_array} calls for
    the dynamic extent of [f]; restored on exit, exceptions included.
    The override is process-global — intended for tests, not for
    concurrent production use.
    @raise Invalid_argument when [n < 1]. *)

val map : ?cap:bool -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [cap] (default [true]) caps the worker count at the machine's
    domain budget ({!default_jobs}).  [~cap:false] honours [jobs]
    exactly and can oversubscribe a small machine — an escape hatch for
    tests that need a known concurrent worker count (e.g. barrier
    tests); production fan-out should stay capped.
    @raise Invalid_argument when [jobs < 1]. *)

val map_array : ?cap:bool -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array

val iter : ?cap:bool -> jobs:int -> ('a -> unit) -> 'a list -> unit
