(** Deterministic pseudo-random number generation.

    All randomness in the reproduction flows through this module so that a
    given seed yields byte-identical workloads, traces, and experiment rows
    on every run.  The generator is splitmix64 (Steele, Lea & Flood 2014): a
    64-bit state advanced by a Weyl constant and finalized with a
    variant of the MurmurHash3 mixer.  It is fast, has a full 2^64 period,
    and supports cheap splitting into independent streams. *)

type t
(** Mutable generator state.  The 64-bit state is stored unboxed, so a
    draw through {!int}, {!bool}, {!pick_cumulative} or {!shuffle}
    allocates nothing. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Generators created from equal
    seeds produce equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future
    stream from this point. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator seeded from the drawn
    value, statistically independent of [t]'s subsequent output.  Used to
    give each benchmark / procedure / branch its own stream so that local
    changes do not perturb unrelated draws. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> p:float -> bool
(** [bool t ~p] is [true] with probability [p] (clamped to [\[0,1\]]):
    [float t < p], drawing nothing when [p <= 0] or [p >= 1].
    @raise Invalid_argument when [p] is NaN. *)

val bernoulli_cutoff : p:float -> int
(** [p] prepared for {!bernoulli}: an integer threshold on the 53-bit
    draw ([0] when [p <= 0], [max_int] when [p >= 1]).
    @raise Invalid_argument when [p] is NaN. *)

val bernoulli : t -> cutoff:int -> bool
(** [bernoulli t ~cutoff:(bernoulli_cutoff ~p)] is [bool t ~p]: the
    comparison of {!float} with [p] decided on the integer draw, with no
    float arithmetic, so a probability prepared once costs nothing per
    draw. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array.  @raise Invalid_argument on an
    empty array. *)

val pick_weighted : t -> weights:float array -> int
(** [pick_weighted t ~weights] draws an index with probability proportional
    to its weight.  Weights must be non-negative with a positive sum.
    Equal to [pick_cumulative t ~cumulative:(cumulative_weights weights)].
    @raise Invalid_argument otherwise. *)

val cumulative_weights : float array -> float array
(** Running sums of a weight vector, added left to right from [0.0]: the
    [i]-th entry is [w0 +. w1 +. ... +. wi] and the last is the total.
    @raise Invalid_argument as {!pick_weighted} does. *)

val pick_cumulative : t -> cumulative:float array -> int
(** {!pick_weighted} over weights already summed by {!cumulative_weights}:
    the same draw and the same index, bit for bit, without re-checking or
    re-summing the weights.  [cumulative] is not validated. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
