(** Scheme name registry — the single parser behind every surface that
    accepts a scheme by name (CLI, serve handshake, sweeps, benches).

    Grammar: the seven names of {!base} plus two k-iteration families,
    [net-k<k>] and [path-profile-k<k>], where [<k>] is a canonical
    decimal in [\[1, max_k\]] ("net-k2"; "net-k02", "net-k0x2" and
    "net-k" are rejected with a descriptive error).  Every name parses
    to a scheme that declares its lane loop ({!Scheme.S.kernel}). *)

val max_k : int

val base : (string * Scheme.packed) list
(** The non-parameterized schemes, in canonical order:
    net, net-once, let, path-profile, static, net-kauto,
    path-profile-kauto. *)

val base_names : string list

val help : string
(** One-line grammar summary for error messages and [--help] text. *)

val of_name : string -> (Scheme.packed, string) result

val of_name_exn : string -> Scheme.packed
(** @raise Failure with the same message [of_name] returns in [Error]. *)
