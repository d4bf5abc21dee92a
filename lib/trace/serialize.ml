module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Vec = Hotpath_util.Vec
module Crc32 = Hotpath_util.Crc32

(* The field codecs below are shared by every frame kind of [Stream].
   Unbounded counts (block weights, per-path instruction counts) are 64
   bits, and 32-bit writes are range-checked instead of truncating. *)

(* ------------------------------------------------------------------ *)
(* Field encoders                                                      *)
(* ------------------------------------------------------------------ *)

let add_u8 buf v = Buffer.add_uint8 buf v

let add_i32 buf v =
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    invalid_arg
      (Printf.sprintf "Serialize.add_i32: %d does not fit in 32 bits" v);
  Buffer.add_int32_le buf (Int32.of_int v)

let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_raw_i64 buf v = Buffer.add_int64_le buf v

let add_str buf s =
  add_i32 buf (String.length s);
  Buffer.add_string buf s

let add_int_array buf arr =
  add_i32 buf (Array.length arr);
  Array.iter (add_i32 buf) arr

let add_terminator buf = function
  | Cfg.Branch { taken; fallthrough } ->
    add_u8 buf 0;
    add_i32 buf taken;
    add_i32 buf fallthrough
  | Cfg.Jump t ->
    add_u8 buf 1;
    add_i32 buf t
  | Cfg.Indirect targets ->
    add_u8 buf 2;
    add_int_array buf targets
  | Cfg.Call { callee; return_to } ->
    add_u8 buf 3;
    add_i32 buf callee;
    add_i32 buf return_to
  | Cfg.Return -> add_u8 buf 4
  | Cfg.Exit -> add_u8 buf 5

let add_program buf (p : Cfg.program) =
  add_str buf p.Cfg.pname;
  add_i32 buf p.Cfg.main;
  add_i32 buf (Array.length p.Cfg.procs);
  Array.iter
    (fun (pr : Cfg.proc) ->
       add_str buf pr.Cfg.name;
       add_int_array buf pr.Cfg.blocks)
    p.Cfg.procs;
  add_i32 buf (Array.length p.Cfg.blocks);
  Array.iter
    (fun (b : Cfg.block) ->
       add_i32 buf b.Cfg.proc;
       add_i64 buf b.Cfg.weight;
       add_terminator buf b.Cfg.term)
    p.Cfg.blocks

let end_kind_code = function
  | Path.Backward_transfer -> 0
  | Path.Matched_return -> 1
  | Path.Cap -> 2
  | Path.Program_end -> 3

let add_path buf (p : Path.t) =
  let s = p.Path.signature in
  add_i32 buf (Signature.head s);
  add_u8 buf (Signature.length s);
  add_raw_i64 buf (Signature.history s);
  add_int_array buf (Array.of_list (Signature.indirect_targets s));
  add_int_array buf p.Path.blocks;
  add_i64 buf p.Path.n_instrs;
  add_u8 buf (end_kind_code p.Path.end_kind)

let add_stats buf (s : Vm.run_stats) =
  add_u8 buf (match s.Vm.reason with `Exited -> 0 | `Fuel -> 1);
  List.iter (add_i64 buf)
    [ s.Vm.blocks; s.Vm.branches; s.Vm.calls; s.Vm.returns; s.Vm.indirects;
      s.Vm.backward_transfers; s.Vm.max_stack ]

(* ------------------------------------------------------------------ *)
(* Field decoders                                                      *)
(* ------------------------------------------------------------------ *)

exception Parse of string

type cursor = { s : string; mutable pos : int }

let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

(* Overflow-safe: [n] may be any 64-bit count from a corrupt input, so the
   bound is checked by subtraction, never by [pos + n]. *)
let need c n =
  if n < 0 || c.pos > String.length c.s - n then
    fail "truncated input at offset %d (need %d bytes)" c.pos n

let remaining c = String.length c.s - c.pos

let get_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_i32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) in
  c.pos <- c.pos + 4;
  v

let get_raw_i64 c =
  need c 8;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_i64 c =
  let v = get_raw_i64 c in
  match Int64.unsigned_to_int v with
  | Some n -> n
  | None -> fail "64-bit value out of range at offset %d" (c.pos - 8)

let get_str c =
  let n = get_i32 c in
  if n < 0 then fail "negative string length";
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_int_array c =
  let n = get_i32 c in
  if n < 0 then fail "negative array length";
  need c (n * 4);
  Array.init n (fun _ -> get_i32 c)

let get_terminator c =
  match get_u8 c with
  | 0 ->
    let taken = get_i32 c in
    let fallthrough = get_i32 c in
    Cfg.Branch { taken; fallthrough }
  | 1 -> Cfg.Jump (get_i32 c)
  | 2 -> Cfg.Indirect (get_int_array c)
  | 3 ->
    let callee = get_i32 c in
    let return_to = get_i32 c in
    Cfg.Call { callee; return_to }
  | 4 -> Cfg.Return
  | 5 -> Cfg.Exit
  | tag -> fail "unknown terminator tag %d" tag

(* Count plausibility is bounded against the bytes actually present: every
   procedure record is at least 8 bytes, every block at least 13, every
   path at least 30.  This rejects corrupt counts before [Array.init]
   would allocate gigabytes (or raise an uncaught [Invalid_argument]). *)
let get_program c =
  let pname = get_str c in
  let main = get_i32 c in
  let n_procs = get_i32 c in
  if n_procs < 0 || n_procs > 1_000_000 || n_procs > remaining c / 8 then
    fail "implausible proc count %d" n_procs;
  let procs =
    Array.init n_procs (fun pid ->
        let name = get_str c in
        let blocks = get_int_array c in
        if Array.length blocks = 0 then fail "procedure %s has no blocks" name;
        { Cfg.pid; name; entry = blocks.(0); blocks })
  in
  let n_blocks = get_i32 c in
  if n_blocks < 0 || n_blocks > 100_000_000 || n_blocks > remaining c / 13 then
    fail "implausible block count %d" n_blocks;
  let blocks =
    Array.init n_blocks (fun id ->
        let proc = get_i32 c in
        let weight = get_i64 c in
        let term = get_terminator c in
        { Cfg.id; proc; weight; term })
  in
  { Cfg.pname; blocks; procs; main }

let end_kind_of_code = function
  | 0 -> Path.Backward_transfer
  | 1 -> Path.Matched_return
  | 2 -> Path.Cap
  | 3 -> Path.Program_end
  | tag -> fail "unknown end-kind tag %d" tag

let get_path c table expected_id ~n_blocks =
  let head = get_i32 c in
  let len = get_u8 c in
  if len > Signature.max_branches then fail "signature length %d over cap" len;
  let bits = get_raw_i64 c in
  let indirects = get_int_array c in
  let sigb = Signature.Builder.create ~head in
  for i = 0 to len - 1 do
    Signature.Builder.add_branch sigb
      ~taken:(Int64.(logand (shift_right_logical bits i) 1L) = 1L)
  done;
  Array.iter (fun target -> Signature.Builder.add_indirect sigb ~target) indirects;
  let signature = Signature.Builder.freeze sigb in
  let blocks = get_int_array c in
  if Array.length blocks = 0 then fail "path %d has no blocks" expected_id;
  Array.iter
    (fun b ->
       if b < 0 || b >= n_blocks then
         fail "path %d references block %d outside the program" expected_id b)
    blocks;
  let n_instrs = get_i64 c in
  let end_kind = end_kind_of_code (get_u8 c) in
  if Path_table.find table signature <> None then
    fail "duplicate path signature at id %d" expected_id;
  let id =
    Path_table.intern table signature ~blocks ~n_instrs ~n_branches:len ~end_kind
  in
  if id <> expected_id then fail "out-of-order path %d" expected_id

let get_stats c =
  let reason = match get_u8 c with 0 -> `Exited | 1 -> `Fuel | t -> fail "reason %d" t in
  let blocks = get_i64 c in
  let branches = get_i64 c in
  let calls = get_i64 c in
  let returns = get_i64 c in
  let indirects = get_i64 c in
  let backward_transfers = get_i64 c in
  let max_stack = get_i64 c in
  { Vm.reason; blocks; branches; calls; returns; indirects; backward_transfers;
    max_stack }

(* ------------------------------------------------------------------ *)
(* HOTPATH3: framed, CRC-protected streaming format                    *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  let magic = "HOTPATH3"

  let default_chunk_instances = Recorder.default_chunk_instances

  (* A frame is [kind:u8 | payload_len:i32le | payload | crc32:u32le],
     with the CRC covering the 5 header bytes and the payload, so a
     corrupted kind, length field, or payload byte is always detected. *)
  let max_frame_payload = 1 lsl 26

  let k_program = 0

  let k_paths = 1

  let k_instances = 2

  let k_end = 3

  (* Frame-splitting granularities, both comfortably under
     [max_frame_payload]: paths are ~30-200 bytes each, instances 5. *)
  let paths_per_frame = 16_384

  let instances_per_frame = 8_000_000

  (* ---------------- Writer ---------------- *)

  type writer = {
    w_sink : string -> unit;
    mutable w_paths_written : int;
    mutable w_instances_written : int;
    mutable w_finished : bool;
    w_payload : Buffer.t;
  }

  let write_frame w ~kind =
    let payload = Buffer.contents w.w_payload in
    Buffer.clear w.w_payload;
    let len = String.length payload in
    if len > max_frame_payload then
      invalid_arg
        (Printf.sprintf "Serialize.Stream: frame payload %d exceeds %d bytes"
           len max_frame_payload);
    let hdr = Bytes.create 5 in
    Bytes.set_uint8 hdr 0 kind;
    Bytes.set_int32_le hdr 1 (Int32.of_int len);
    let crc = Crc32.update_bytes Crc32.empty hdr ~pos:0 ~len:5 in
    let crc = Crc32.update_string crc payload ~pos:0 ~len in
    let tl = Bytes.create 4 in
    Bytes.set_int32_le tl 0 crc;
    w.w_sink (Bytes.to_string hdr);
    w.w_sink payload;
    w.w_sink (Bytes.to_string tl)

  let writer sink ~program =
    (match Cfg.validate program with
     | Ok () -> ()
     | Error e -> invalid_arg ("Serialize.Stream.writer: invalid program: " ^ e));
    let w =
      { w_sink = sink; w_paths_written = 0; w_instances_written = 0;
        w_finished = false; w_payload = Buffer.create (1 lsl 16) }
    in
    sink magic;
    add_program w.w_payload program;
    write_frame w ~kind:k_program;
    w

  let sync_paths w ~table =
    let np = Path_table.size table in
    while w.w_paths_written < np do
      let stop = min np (w.w_paths_written + paths_per_frame) in
      add_i32 w.w_payload (stop - w.w_paths_written);
      for id = w.w_paths_written to stop - 1 do
        add_path w.w_payload (Path_table.path table id)
      done;
      write_frame w ~kind:k_paths;
      w.w_paths_written <- stop
    done

  let write_chunk w ~table ~ids ~arrivals =
    if w.w_finished then
      invalid_arg "Serialize.Stream.write_chunk: writer already finished";
    let n = Array.length ids in
    if Bytes.length arrivals <> n then
      invalid_arg
        (Printf.sprintf
           "Serialize.Stream.write_chunk: %d arrivals for %d instances"
           (Bytes.length arrivals) n);
    sync_paths w ~table;
    let off = ref 0 in
    while !off < n do
      let len = min instances_per_frame (n - !off) in
      add_i32 w.w_payload len;
      for j = !off to !off + len - 1 do
        add_i32 w.w_payload ids.(j)
      done;
      Buffer.add_subbytes w.w_payload arrivals !off len;
      write_frame w ~kind:k_instances;
      w.w_instances_written <- w.w_instances_written + len;
      off := !off + len
    done

  let finish w ~table ~vm_stats =
    if w.w_finished then
      invalid_arg "Serialize.Stream.finish: writer already finished";
    sync_paths w ~table;
    add_stats w.w_payload vm_stats;
    add_i64 w.w_payload w.w_instances_written;
    add_i32 w.w_payload w.w_paths_written;
    write_frame w ~kind:k_end;
    w.w_finished <- true

  let write ?(chunk_instances = default_chunk_instances) (r : Recorder.t) sink =
    if chunk_instances < 1 then
      invalid_arg "Serialize.Stream.write: chunk_instances must be >= 1";
    let w = writer sink ~program:r.Recorder.program in
    let n = Array.length r.Recorder.instances in
    let off = ref 0 in
    while !off < n do
      let len = min chunk_instances (n - !off) in
      write_chunk w ~table:r.Recorder.table
        ~ids:(Array.sub r.Recorder.instances !off len)
        ~arrivals:(Bytes.sub r.Recorder.arrivals !off len);
      off := !off + len
    done;
    finish w ~table:r.Recorder.table ~vm_stats:r.Recorder.vm_stats

  let to_string ?chunk_instances r =
    let buf = Buffer.create (1 lsl 16) in
    write ?chunk_instances r (Buffer.add_string buf);
    Buffer.contents buf

  let save ?chunk_instances r ~path =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> write ?chunk_instances r (output_string oc))

  let record ?max_steps ?max_paths ?max_stack ?chunk_instances
      ?(events = Hotpath_util.Events.null) program behavior ~rng ~sink =
    (* Event emission observes the byte stream through a counting wrapper;
       the bytes written are identical with events on and off. *)
    let module Ev = Hotpath_util.Events in
    let bytes_out = ref 0 in
    let sink =
      if Ev.is_null events then sink
      else fun s ->
        bytes_out := !bytes_out + String.length s;
        sink s
    in
    let w = writer sink ~program in
    let instances = ref 0 and seq = ref 0 in
    Recorder.record_chunked ?max_steps ?max_paths ?max_stack ?chunk_instances
      program behavior ~rng
      ~flush:(fun ~table ~ids ~arrivals ->
        write_chunk w ~table ~ids ~arrivals;
        if not (Ev.is_null events) then begin
          instances := !instances + Array.length ids;
          Ev.record_chunk events ~seq:!seq ~instances:!instances
            ~paths:(Path_table.size table) ~bytes_out:!bytes_out;
          incr seq
        end)
      ~finish:(fun ~table ~vm_stats ->
        finish w ~table ~vm_stats;
        if not (Ev.is_null events) then
          Ev.record_done events ~instances:!instances
            ~paths:(Path_table.size table) ~bytes_out:!bytes_out)

  (* ---------------- Reader ---------------- *)

  (* One frame parser, fed three ways.  Every reader is a window of
     bytes, live in [r_head, r_tail) of a bigstring, and one state
     machine ([step]) that checks the magic, then each frame's header,
     bounds and CRC, then dispatches on its kind.  The feeds differ only
     in how the window gets its bytes:
     - mapped: the window is the whole input (a mapping or a wrapped
       buffer), so instance frames decode straight out of it;
     - pull: [available] refills the window from a blocking input;
     - push: [Decoder.feed] appends to it, and a frame that has not fully
       arrived is reported as [B_need_more].
     A feed is at end of input ([r_eof]) when no byte will ever follow
     [r_tail]; only then does a short window become a truncation
     error. *)

  type bigstring = Crc32.bigstring

  type feed =
    | Mapped
    | Pull of {
        read : Bytes.t -> int -> int -> int;
        release : unit -> unit;
        staging : Bytes.t;
      }
    | Push

  type reader = {
    r_feed : feed;
    mutable r_buf : bigstring;
    mutable r_head : int;
    mutable r_tail : int;
    mutable r_eof : bool;
    mutable r_magic : bool;
    mutable r_program : Cfg.program option;
    r_table : Path_table.t;
    mutable r_instances : int;
    mutable r_vm_stats : Vm.run_stats option;
    mutable r_error : string option;
  }

  type batch_step =
    | B_need_more
    | B_program of Cfg.program
    | B_batch
    | B_end of Vm.run_stats

  let ba_create n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

  let ba_u8 (b : bigstring) i = Char.code (Bigarray.Array1.unsafe_get b i)

  external ba_get32 : bigstring -> int -> int32 = "%caml_bigstring_get32u"

  external swap32 : int32 -> int32 = "%bswap_int32"

  (* Little-endian i32 straight off the window: one unaligned load,
     which the native compiler keeps unboxed through [Int32.to_int]
     (the sign extension). *)
  let ba_i32 (b : bigstring) i =
    let v = ba_get32 b i in
    Int32.to_int (if Sys.big_endian then swap32 v else v)

  let ba_sub_string (b : bigstring) ~pos ~len =
    let s = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set s i (Bigarray.Array1.unsafe_get b (pos + i))
    done;
    Bytes.unsafe_to_string s

  let ba_blit_string s ~pos (b : bigstring) ~dst ~len =
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set b (dst + i) (String.unsafe_get s (pos + i))
    done

  let create_reader feed buf ~len ~eof =
    { r_feed = feed; r_buf = buf; r_head = 0; r_tail = len; r_eof = eof;
      r_magic = false; r_program = None; r_table = Path_table.create ();
      r_instances = 0; r_vm_stats = None; r_error = None }

  (* Room for [n] more bytes after [r_tail]: slide the live bytes to the
     front, doubling the window when they still do not fit.  Amortized
     O(1) per byte, and the window never outgrows twice the bytes it has
     had to hold at once — one frame plus one read-ahead. *)
  let reserve rd n =
    let dim = Bigarray.Array1.dim rd.r_buf in
    if rd.r_tail + n > dim then begin
      let live = rd.r_tail - rd.r_head in
      let cap = ref (max 4096 dim) in
      while live + n > !cap do
        cap := !cap * 2
      done;
      let nb = if !cap = dim then rd.r_buf else ba_create !cap in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub rd.r_buf rd.r_head live)
        (Bigarray.Array1.sub nb 0 live);
      rd.r_buf <- nb;
      rd.r_head <- 0;
      rd.r_tail <- live
    end

  (* Whether [n] bytes are in the window.  The pull feed refills, one
     read at a time, until they are or its input ends — so a forged
     frame length costs only the bytes that really arrive; the other
     feeds hold whatever they hold. *)
  let rec available rd n =
    rd.r_tail - rd.r_head >= n
    ||
    match rd.r_feed with
    | Pull p when not rd.r_eof ->
      reserve rd (Bytes.length p.staging);
      let got = p.read p.staging 0 (Bytes.length p.staging) in
      if got = 0 then rd.r_eof <- true
      else begin
        ba_blit_string (Bytes.unsafe_to_string p.staging) ~pos:0 rd.r_buf
          ~dst:rd.r_tail ~len:got;
        rd.r_tail <- rd.r_tail + got
      end;
      available rd n
    | _ -> false

  let starved rd what =
    if rd.r_eof then fail "truncated stream: EOF while reading %s" what;
    B_need_more

  let check_consumed c =
    if c.pos <> String.length c.s then
      fail "frame has %d trailing bytes" (String.length c.s - c.pos)

  let parse_program_payload payload =
    let c = { s = payload; pos = 0 } in
    let program = get_program c in
    check_consumed c;
    (match Cfg.validate program with
     | Ok () -> ()
     | Error e -> fail "invalid program: %s" e);
    program

  let parse_paths_payload payload ~table ~n_blocks =
    let c = { s = payload; pos = 0 } in
    let count = get_i32 c in
    if count < 0 || count > remaining c / 30 then
      fail "implausible path count %d" count;
    for _ = 1 to count do
      get_path c table (Path_table.size table) ~n_blocks
    done;
    check_consumed c

  let parse_end_payload payload ~instances ~paths =
    let c = { s = payload; pos = 0 } in
    let stats = get_stats c in
    let total_instances = get_i64 c in
    let total_paths = get_i32 c in
    check_consumed c;
    if total_instances <> instances then
      fail "end frame declares %d instances, stream carried %d" total_instances
        instances;
    if total_paths <> paths then
      fail "end frame declares %d paths, stream carried %d" total_paths paths;
    stats

  (* The hot path: an instance frame's count, ids and arrival bytes are
     validated and widened straight from the window into the caller's
     batch — no payload string, no per-frame allocation.  The checks and
     their messages are those of the cursor parsers: a payload too short
     for its count field fails like [get_i32] at offset 0. *)
  let decode_instances (buf : bigstring) ~off ~len ~table (batch : Batch.t) =
    if len < 4 then fail "truncated input at offset 0 (need 4 bytes)";
    let n = ba_i32 buf off in
    if n < 0 || n > (len - 4) / 5 then fail "implausible instance count %d" n;
    let np = Path_table.size table in
    Batch.ensure batch n;
    let ids = batch.Batch.ids and arrs = batch.Batch.arrs in
    let idoff = off + 4 in
    for j = 0 to n - 1 do
      let id = ba_i32 buf (idoff + (4 * j)) in
      if id < 0 || id >= np then
        fail "instance path id %d out of range (%d paths)" id np;
      Array.unsafe_set ids j id
    done;
    let aoff = idoff + (4 * n) in
    for j = 0 to n - 1 do
      let a = ba_u8 buf (aoff + j) in
      if a > 2 then fail "invalid arrival code %d" a;
      Array.unsafe_set arrs j a
    done;
    if len <> 4 + (5 * n) then
      fail "frame has %d trailing bytes" (len - (4 + (5 * n)));
    Batch.set_length batch n

  (* The frame state machine.  Its recursive calls (past the magic, past
     each paths frame) are all tail calls and no [try] encloses them:
     a stream padded with millions of valid, empty paths frames must not
     grow the stack.  [advance] wraps the single entry. *)
  let rec step rd batch =
    match rd.r_vm_stats with
    | Some stats ->
      if available rd 1 then fail "trailing garbage after end frame";
      B_end stats
    | None ->
      if not rd.r_magic then begin
        let mlen = String.length magic in
        if not (available rd mlen) then starved rd "magic"
        else begin
          let m = ba_sub_string rd.r_buf ~pos:rd.r_head ~len:mlen in
          if m <> magic then
            if m = "HOTPATH2" then
              fail
                "HOTPATH2 trace: this format is no longer read; re-record it \
                 with `hotpath record`"
            else fail "bad magic %S" m;
          rd.r_head <- rd.r_head + mlen;
          rd.r_magic <- true;
          step rd batch
        end
      end
      else if not (available rd 5) then starved rd "frame header"
      else begin
        let kind = ba_u8 rd.r_buf rd.r_head in
        let len = ba_i32 rd.r_buf (rd.r_head + 1) in
        if len < 0 || len > max_frame_payload then
          fail "implausible frame payload length %d" len;
        if not (available rd (5 + len)) then starved rd "frame payload"
        else if not (available rd (5 + len + 4)) then
          starved rd "frame checksum"
        else begin
          (* A refill may have moved the window: re-read [r_head]. *)
          let buf = rd.r_buf and p = rd.r_head in
          let crc =
            Crc32.update_bigstring Crc32.empty buf ~pos:p ~len:(5 + len)
          in
          if crc <> Int32.of_int (ba_i32 buf (p + 5 + len)) then
            fail "frame checksum mismatch (kind %d)" kind;
          let off = p + 5 in
          rd.r_head <- off + len + 4;
          let payload () = ba_sub_string buf ~pos:off ~len in
          match rd.r_program with
          | None ->
            if kind <> k_program then
              fail "expected program frame, got kind %d" kind;
            let program = parse_program_payload (payload ()) in
            rd.r_program <- Some program;
            B_program program
          | Some program ->
            if kind = k_paths then begin
              parse_paths_payload (payload ()) ~table:rd.r_table
                ~n_blocks:(Array.length program.Cfg.blocks);
              step rd batch
            end
            else if kind = k_instances then begin
              decode_instances buf ~off ~len ~table:rd.r_table batch;
              rd.r_instances <- rd.r_instances + Batch.length batch;
              B_batch
            end
            else if kind = k_end then begin
              let stats =
                parse_end_payload (payload ()) ~instances:rd.r_instances
                  ~paths:(Path_table.size rd.r_table)
              in
              if available rd 1 then fail "trailing garbage after end frame";
              rd.r_vm_stats <- Some stats;
              B_end stats
            end
            else fail "unknown frame kind %d" kind
        end
      end

  let advance rd batch =
    match rd.r_error with
    | Some e -> Error e
    | None -> (
        try Ok (step rd batch)
        with Parse msg ->
          rd.r_error <- Some msg;
          Error msg)

  let close rd =
    rd.r_eof <- true;
    match rd.r_feed with Pull p -> p.release () | Mapped | Push -> ()

  (* Bounded feeds (pull, mapped) open through the program frame: with
     the whole input behind them, the first step is the program or an
     error, never [B_need_more]. *)
  let open_reader rd =
    match advance rd (Batch.create ~capacity:1 ()) with
    | Ok _ -> Ok rd
    | Error _ as e ->
      close rd;
      e

  let pull_chunk = 1 lsl 16

  let open_pull ~read ~release =
    open_reader
      (create_reader
         (Pull { read; release; staging = Bytes.create pull_chunk })
         (ba_create pull_chunk) ~len:0 ~eof:false)

  let open_file ~path =
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic ->
      open_pull
        ~read:(fun b off len ->
          try Stdlib.input ic b off len
          with Sys_error e -> raise (Parse ("I/O error: " ^ e)))
        ~release:(fun () -> close_in_noerr ic)

  let rec next_batch rd batch =
    match advance rd batch with
    | Ok B_batch -> Ok true
    | Ok (B_end _) -> Ok false
    | Ok (B_program _) -> next_batch rd batch
    | Ok B_need_more ->
      invalid_arg
        "Serialize.Stream.next_batch: push decoder starved (use \
         Decoder.next_batch)"
    | Error _ as e -> e

  let program rd =
    match rd.r_program with
    | Some p -> p
    | None -> invalid_arg "Serialize.Stream.program: no program frame yet"

  let table rd = rd.r_table

  let instances_read rd = rd.r_instances

  let vm_stats rd = rd.r_vm_stats

  (* Pull over an in-memory stream: the window holds a frame at a time,
     never a second copy of the whole input. *)
  let open_pull_string s =
    let pos = ref 0 in
    let read b off len =
      let n = min len (String.length s - !pos) in
      Bytes.blit_string s !pos b off n;
      pos := !pos + n;
      n
    in
    open_pull ~read ~release:ignore

  let of_recorder ?chunk_instances r =
    match open_pull_string (to_string ?chunk_instances r) with
    | Ok rd -> rd
    | Error e -> invalid_arg ("Serialize.Stream.of_recorder: " ^ e)

  let to_recorder rd =
    let ids = Vec.create () in
    let arrivals = Buffer.create 4096 in
    let batch = Batch.create () in
    let rec drain () =
      match next_batch rd batch with
      | Error e -> Error e
      | Ok true ->
        for j = 0 to Batch.length batch - 1 do
          Vec.push ids batch.Batch.ids.(j);
          Buffer.add_uint8 arrivals batch.Batch.arrs.(j)
        done;
        drain ()
      | Ok false -> (
          match
            Recorder.of_parts ~program:(program rd) ~table:rd.r_table
              ~instances:(Vec.to_array ids) ~arrivals:(Buffer.to_bytes arrivals)
              ~vm_stats:(Option.get rd.r_vm_stats)
          with
          | Ok r -> Ok r
          | Error e -> Error ("invalid recording: " ^ e))
    in
    let result = drain () in
    close rd;
    result

  module Decoder = struct
    type t = reader

    type nonrec batch_step = batch_step =
      | B_need_more
      | B_program of Cfg.program
      | B_batch
      | B_end of Vm.run_stats

    let create () = create_reader Push (ba_create 4096) ~len:0 ~eof:false

    let buffered d = d.r_tail - d.r_head

    let feed d s ~pos ~len =
      if pos < 0 || len < 0 || pos > String.length s - len then
        invalid_arg "Serialize.Stream.Decoder.feed: bad substring";
      (match d.r_feed with
       | Push -> ()
       | Mapped | Pull _ ->
         invalid_arg "Serialize.Stream.Decoder.feed: not a push decoder");
      if d.r_error = None && not d.r_eof then begin
        reserve d len;
        ba_blit_string s ~pos d.r_buf ~dst:d.r_tail ~len;
        d.r_tail <- d.r_tail + len
      end

    let next_batch = advance
  end

  module Mapped = struct
    type nonrec bigstring = bigstring

    type t = reader

    let of_bigstring buf =
      open_reader
        (create_reader Mapped buf ~len:(Bigarray.Array1.dim buf) ~eof:true)

    let of_string s =
      let n = String.length s in
      let b = ba_create n in
      ba_blit_string s ~pos:0 b ~dst:0 ~len:n;
      of_bigstring b

    (* The kind is checked on the path, before any open: opening a FIFO
       would block until a writer appears, and closing it again could
       leave that writer without a reader. *)
    let map_file ~path =
      let unix_error e = Error (path ^ ": " ^ Unix.error_message e) in
      match Unix.stat path with
      | exception Unix.Unix_error (e, _, _) -> unix_error e
      | { Unix.st_kind = Unix.S_REG; st_size = 0; _ } ->
        (* mmap(2) rejects empty regions; an empty file is just a
           truncated stream. *)
        of_bigstring (ba_create 0)
      | { Unix.st_kind = Unix.S_REG; _ } -> (
          match Unix.openfile path [ Unix.O_RDONLY ] 0 with
          | exception Unix.Unix_error (e, _, _) -> unix_error e
          | fd -> (
              (* The mapping outlives the descriptor; the bigarray
                 finalizer unmaps at GC. *)
              let mapped =
                match
                  Unix.map_file fd Bigarray.char Bigarray.c_layout false
                    [| -1 |]
                with
                | ga -> Ok (Bigarray.array1_of_genarray ga)
                | exception Unix.Unix_error (e, _, _) ->
                  Error (path ^ ": mmap failed: " ^ Unix.error_message e)
                | exception Sys_error e -> Error (path ^ ": mmap failed: " ^ e)
              in
              (try Unix.close fd with Unix.Unix_error _ -> ());
              match mapped with Ok buf -> of_bigstring buf | Error _ as e -> e))
      | _ ->
        Error
          (path ^ ": not a regular file — mmap ingest needs one (use open_file)")

    let next_batch = next_batch

    let instances_read = instances_read
  end
end

(* ------------------------------------------------------------------ *)
(* Whole-recording entry points                                        *)
(* ------------------------------------------------------------------ *)

let of_string s = Result.bind (Stream.open_pull_string s) Stream.to_recorder

let load ~path = Result.bind (Stream.open_file ~path) Stream.to_recorder
