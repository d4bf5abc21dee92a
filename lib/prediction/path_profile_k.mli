(** k-iteration path-profile prediction ([path-profile-k<k>]).

    Like {!Path_profile} but the counter key is the k-iteration window —
    up to [k] consecutive path instances chained by loop back-edges
    (interned by {!Hotpath_trace.Kpath}) — so a path only trips when the
    *sequence* it arrives in recurs.  The offered target is still the
    acyclic tail id.  [make 1] reduces bit-identically to
    {!Path_profile} (modulo the scheme name). *)

val make : int -> Scheme.packed
(** The scheme for a given [k], declaring the kernel
    [Scheme.Path_profile_k k].
    @raise Invalid_argument when [k < 1]. *)
