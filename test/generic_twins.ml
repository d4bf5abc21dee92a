(* Generic twins of the built-in schemes, shared by the differential
   suites.  Each twin eta-expands the member [Session.kernel] keys on —
   [observe] for the base schemes, [create] for the k-iteration families
   (whose [observe] is shared across every k) — so it behaves exactly
   like its scheme but always runs the generic lane loop.  Comparing a
   scheme with its twin on the same source is the kernel-vs-reference
   differential, on every source: materialized, mapped and pushed. *)

module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile

module Net_generic : Scheme.S = struct
  include Net

  let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
    Net.observe t ~head ~arrival ~path_id ~n_branches ~n_blocks
end

module Pp_generic : Scheme.S = struct
  include Path_profile

  let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
    Path_profile.observe t ~head ~arrival ~path_id ~n_branches ~n_blocks
end

module Net_k2 = (val Hotpath_prediction.Net_k.make 2)
module Pp_k2 = (val Hotpath_prediction.Path_profile_k.make 2)

module Net_k2_generic : Scheme.S = struct
  include Net_k2

  let create ~delay ~program = Net_k2.create ~delay ~program
end

module Pp_k2_generic : Scheme.S = struct
  include Pp_k2

  let create ~delay ~program = Pp_k2.create ~delay ~program
end

(* (label, kernel scheme, its generic twin) *)
let pairs : (string * Scheme.packed * Scheme.packed) list =
  [
    ("net", (module Net), (module Net_generic));
    ("path-profile", (module Path_profile), (module Pp_generic));
    ("net-k2", (module Net_k2), (module Net_k2_generic));
    ("path-profile-k2", (module Pp_k2), (module Pp_k2_generic));
  ]
