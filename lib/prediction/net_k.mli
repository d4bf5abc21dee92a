(** k-iteration NET prediction ([net-k<k>]).

    NET's per-head trip counter, but a trip opens a window: the tripping
    tail plus the next [k - 1] back-edge-chained tails are all offered
    (an [Entry]/[Continuation] arrival closes the window early), so one
    trip selects a k-iteration hot region.  [make 1] reduces
    bit-identically to {!Net} (modulo the scheme name). *)

val make : int -> Scheme.packed
(** The scheme for a given [k], declaring the kernel
    [Scheme.Net_k k].
    @raise Invalid_argument when [k < 1]. *)
