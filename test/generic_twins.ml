(* Generic twins of the built-in kernel schemes, shared by the
   differential suites.  [Scheme.generic] keeps every function of its
   scheme and declares the generic lane loop, so comparing a scheme with
   its twin on the same source is the kernel-vs-reference differential,
   on every source: materialized, mapped and pushed. *)

module Scheme = Hotpath_prediction.Scheme
module Schemes = Hotpath_prediction.Schemes

(* (name, kernel scheme, its generic twin): one per kernel, with the
   k-iteration families at k = 2. *)
let pairs : (string * Scheme.packed * Scheme.packed) list =
  List.map
    (fun name ->
       let s = Schemes.of_name_exn name in
       (name, s, Scheme.generic s))
    [ "net"; "net-once"; "let"; "path-profile"; "net-k2"; "path-profile-k2" ]
