type value = Int of int | Float of float | Str of string | Bool of bool

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* Each live sink carries a scratch buffer reused across lines: emission
   sits inside replay windows whose whole budget is tens of microseconds,
   so a per-line Buffer allocation is measurable. *)
type sink =
  | Null
  | Fn of { fn : string -> unit; mutable lines : int; buf : Buffer.t }
  | Chan of {
      oc : out_channel;
      mutable lines : int;
      mutable closed : bool;
      buf : Buffer.t;
    }

let null = Null

let is_null = function Null -> true | Fn _ | Chan _ -> false

let of_fn fn = Fn { fn; lines = 0; buf = Buffer.create 256 }

let of_buffer buf = of_fn (Buffer.add_string buf)

let of_channel oc = of_fn (fun s -> output_string oc s)

let open_file path =
  Chan { oc = open_out path; lines = 0; closed = false; buf = Buffer.create 256 }

let close = function
  | Null | Fn _ -> ()
  | Chan c ->
    if not c.closed then begin
      c.closed <- true;
      close_out_noerr c.oc
    end

let emitted = function Null -> 0 | Fn f -> f.lines | Chan c -> c.lines

(* ------------------------------------------------------------------ *)
(* JSON formatting                                                     *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* %.17g round-trips every float but prints 0.30000000000000004-style
   noise for values that have a shorter exact form; try the shortest
   representation that parses back exactly, as JSON serializers do. *)
let add_float buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" v)
  else begin
    let s = Printf.sprintf "%.12g" v in
    let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
    Buffer.add_string buf s
  end

let add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s -> add_escaped buf s
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let render_into buf ~kind fields =
  Buffer.clear buf;
  Buffer.add_string buf "{\"ev\":";
  add_escaped buf kind;
  List.iter
    (fun (name, v) ->
       Buffer.add_char buf ',';
       Buffer.add_char buf '"';
       Buffer.add_string buf name;
       Buffer.add_string buf "\":";
       add_value buf v)
    fields;
  Buffer.add_string buf "}\n"

let emit sink ~kind fields =
  match sink with
  | Null -> ()
  | Fn f ->
    render_into f.buf ~kind fields;
    f.fn (Buffer.contents f.buf);
    f.lines <- f.lines + 1
  | Chan c ->
    render_into c.buf ~kind fields;
    Buffer.output_buffer c.oc c.buf;
    c.lines <- c.lines + 1

(* ------------------------------------------------------------------ *)
(* Typed constructors                                                  *)
(* ------------------------------------------------------------------ *)

let replay_window sink ~scheme ~delay ~seq ~upto ~instances ~predictions
    ~profiled ~captured ~profiling_ops ~collection_ops ~counter_space
    ~counter_space_hw ?hits ?noise () =
  if not (is_null sink) then
    emit sink ~kind:"replay.window"
      ([ ("scheme", Str scheme); ("delay", Int delay); ("seq", Int seq);
         ("upto", Int upto); ("instances", Int instances);
         ("predictions", Int predictions); ("profiled", Int profiled);
         ("captured", Int captured); ("profiling_ops", Int profiling_ops);
         ("collection_ops", Int collection_ops);
         ("counter_space", Int counter_space);
         ("counter_space_hw", Int counter_space_hw) ]
       @ (match hits with Some h -> [ ("hits", Int h) ] | None -> [])
       @ match noise with Some n -> [ ("noise", Int n) ] | None -> [])

let sweep_point sink ~scheme ~delay ~idx ~total ~profiled_pct ~hit_rate
    ~noise_rate ~predictions ~counter_space ~profiling_ops ~collection_ops =
  emit sink ~kind:"sweep.point"
    [ ("scheme", Str scheme); ("delay", Int delay); ("idx", Int idx);
      ("total", Int total); ("profiled_pct", Float profiled_pct);
      ("hit_rate", Float hit_rate); ("noise_rate", Float noise_rate);
      ("predictions", Int predictions); ("counter_space", Int counter_space);
      ("profiling_ops", Int profiling_ops);
      ("collection_ops", Int collection_ops) ]

let sweep_done sink ~scheme ~delays ~wall_s ~instances ~instances_per_s =
  emit sink ~kind:"sweep.done"
    [ ("scheme", Str scheme); ("delays", Int delays); ("wall_s", Float wall_s);
      ("instances", Int instances);
      ("instances_per_s", Float instances_per_s) ]

let record_chunk sink ~seq ~instances ~paths ~bytes_out =
  emit sink ~kind:"record.chunk"
    [ ("seq", Int seq); ("instances", Int instances); ("paths", Int paths);
      ("bytes_out", Int bytes_out) ]

let record_done sink ~instances ~paths ~bytes_out =
  emit sink ~kind:"record.done"
    [ ("instances", Int instances); ("paths", Int paths);
      ("bytes_out", Int bytes_out) ]

let check_diag sink ~subject ~code ~severity ~loc ~message =
  emit sink ~kind:"check"
    [ ("subject", Str subject); ("code", Str code); ("severity", Str severity);
      ("loc", Str loc); ("message", Str message) ]

let check_done sink ~subjects ~errors ~warnings ~infos =
  emit sink ~kind:"check.done"
    [ ("subjects", Int subjects); ("errors", Int errors);
      ("warnings", Int warnings); ("infos", Int infos) ]

let serve_accept sink ~conn =
  emit sink ~kind:"serve.accept" [ ("conn", Int conn) ]

let serve_attach sink ~conn ~tenant ~scheme ~delays =
  emit sink ~kind:"serve.attach"
    [ ("conn", Int conn); ("tenant", Str tenant); ("scheme", Str scheme);
      ("delays", Int delays) ]

let serve_done sink ~conn ~tenant ~instances ~chunks ~predictions =
  emit sink ~kind:"serve.done"
    [ ("conn", Int conn); ("tenant", Str tenant); ("instances", Int instances);
      ("chunks", Int chunks); ("predictions", Int predictions) ]

let serve_error sink ~conn ~tenant ~code ~message =
  emit sink ~kind:"serve.error"
    [ ("conn", Int conn); ("tenant", Str tenant); ("code", Str code);
      ("message", Str message) ]

let serve_stats sink ~accepted ~completed ~errored ~active ~instances =
  emit sink ~kind:"serve.stats"
    [ ("accepted", Int accepted); ("completed", Int completed);
      ("errored", Int errored); ("active", Int active);
      ("instances", Int instances) ]

let dynamo_install sink ~at ~path ~blocks ~instrs ~fragments =
  emit sink ~kind:"dynamo.install"
    [ ("at", Int at); ("path", Int path); ("blocks", Int blocks);
      ("instrs", Int instrs); ("fragments", Int fragments) ]

let dynamo_flush sink ~at ~reason ~window_preds ~baseline ~flushes ~cycles_flush
  =
  emit sink ~kind:"dynamo.flush"
    [ ("at", Int at); ("reason", Str reason);
      ("window_preds", Int window_preds); ("baseline", Float baseline);
      ("flushes", Int flushes); ("cycles_flush", Float cycles_flush) ]

let dynamo_bail sink ~at ~streak ~overhead_delta ~interp_delta ~native_delta =
  emit sink ~kind:"dynamo.bail"
    [ ("at", Int at); ("streak", Int streak);
      ("overhead_delta", Float overhead_delta);
      ("interp_delta", Float interp_delta);
      ("native_delta", Float native_delta) ]

let dynamo_window sink ~scheme ~delay ~seq ~upto ~full_hits ~partial_hits
    ~misses ~fragments ~flushes ~cycles_fragment ~cycles_interp ~cycles_profile
    ~cycles_overhead ~cycles_flush ~cycles_native =
  emit sink ~kind:"dynamo.window"
    [ ("scheme", Str scheme); ("delay", Int delay); ("seq", Int seq);
      ("upto", Int upto); ("full_hits", Int full_hits);
      ("partial_hits", Int partial_hits); ("misses", Int misses);
      ("fragments", Int fragments); ("flushes", Int flushes);
      ("cycles_fragment", Float cycles_fragment);
      ("cycles_interp", Float cycles_interp);
      ("cycles_profile", Float cycles_profile);
      ("cycles_overhead", Float cycles_overhead);
      ("cycles_flush", Float cycles_flush);
      ("cycles_native", Float cycles_native) ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

module Registry = struct
  type counter = { c_name : string; mutable v : int; mutable hw : int }

  (* Registration order is reporting order, so the table is a list under
     the same mutex that guards counter mutation. *)
  let lock = Mutex.create ()

  let counters : counter list ref = ref []

  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let counter name =
    with_lock (fun () ->
        match List.find_opt (fun c -> c.c_name = name) !counters with
        | Some c -> c
        | None ->
          let c = { c_name = name; v = 0; hw = 0 } in
          counters := !counters @ [ c ];
          c)

  let add c n =
    with_lock (fun () ->
        c.v <- c.v + n;
        if c.v > c.hw then c.hw <- c.v)

  let incr c = add c 1

  let set c n =
    with_lock (fun () ->
        c.v <- n;
        if c.v > c.hw then c.hw <- c.v)

  let value c = with_lock (fun () -> c.v)

  let high_water c = with_lock (fun () -> c.hw)

  let name c = c.c_name

  let snapshot () =
    with_lock (fun () -> List.map (fun c -> (c.c_name, (c.v, c.hw))) !counters)

  let reset () = with_lock (fun () -> counters := [])
end

let registry_snapshot sink =
  if not (is_null sink) then
    emit sink ~kind:"registry"
      (List.concat_map
         (fun (name, (v, hw)) -> [ (name, Int v); (name ^ ".hw", Int hw) ])
         (Registry.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do advance () done
  in
  let expect ch =
    match peek () with
    | Some c when c = ch -> advance ()
    | Some c -> fail "expected '%c' at %d, got '%c'" ch !pos c
    | None -> fail "expected '%c' at %d, got end of line" ch !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let code =
             try int_of_string ("0x" ^ String.sub line !pos 4)
             with Failure _ -> fail "bad \\u escape"
           in
           if code > 0x7f then fail "non-ASCII \\u escape %04x" code;
           Buffer.add_char buf (Char.chr code);
           pos := !pos + 4
         | Some c -> fail "bad escape '\\%c'" c
         | None -> fail "truncated escape");
        go ()
      | Some c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_scalar () =
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' ->
      if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
        pos := !pos + 4; Bool true
      end
      else fail "bad literal at %d" !pos
    | Some 'f' ->
      if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
        pos := !pos + 5; Bool false
      end
      else fail "bad literal at %d" !pos
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      let is_float = ref false in
      let rec scan () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') -> advance (); scan ()
        | Some ('.' | 'e' | 'E') -> is_float := true; advance (); scan ()
        | Some _ | None -> ()
      in
      scan ();
      let s = String.sub line start (!pos - start) in
      if !is_float then
        (try Float (float_of_string s) with Failure _ -> fail "bad number %S" s)
      else (
        try Int (int_of_string s)
        with Failure _ -> (
            (* Integers beyond OCaml's 63-bit range fall back to float. *)
            try Float (float_of_string s)
            with Failure _ -> fail "bad number %S" s))
    | Some c -> fail "unexpected '%c' at %d" c !pos
    | None -> fail "unexpected end of line"
  in
  try
    skip_ws ();
    expect '{';
    let fields = ref [] in
    skip_ws ();
    (match peek () with
     | Some '}' -> advance ()
     | _ ->
       let rec members () =
         skip_ws ();
         let name = parse_string () in
         skip_ws ();
         expect ':';
         skip_ws ();
         let v = parse_scalar () in
         fields := (name, v) :: !fields;
         skip_ws ();
         match peek () with
         | Some ',' -> advance (); members ()
         | Some '}' -> advance ()
         | Some c -> fail "expected ',' or '}' at %d, got '%c'" !pos c
         | None -> fail "unterminated object"
       in
       members ());
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done;
    if !pos <> n then fail "trailing bytes after object at %d" !pos;
    Ok (List.rev !fields)
  with Bad m -> Error m

let kind fields =
  match List.assoc_opt "ev" fields with Some (Str s) -> Some s | _ -> None

let find_int fields name =
  match List.assoc_opt name fields with Some (Int i) -> Some i | _ -> None

let find_float fields name =
  match List.assoc_opt name fields with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let find_str fields name =
  match List.assoc_opt name fields with Some (Str s) -> Some s | _ -> None
