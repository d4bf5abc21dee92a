(* Online prediction serving over Unix domain sockets.

   One single-threaded select loop multiplexes every client: per
   connection a handshake line names the tenant, scheme, and delay
   lanes, then the client streams a raw HOTPATH3 trace.  Frames are
   reassembled by [Serialize.Stream.Decoder] and decoded straight into
   pooled dense [Batch] buffers ([Decoder.next_batch] — no per-frame
   ids/arrivals allocation) that queue into a bounded [Bqueue] per
   tenant (queue full -> the fd leaves the read set, so backpressure is
   the kernel socket buffer filling up, not server memory), and a
   [Session] replays them through the lint gate ([Session.push_batch]).
   Pump and drain run on the same thread, so the batch free list needs
   no synchronization: a batch is either in the pool, in the queue, or
   being pushed.
   Every failure mode — torn handshake, duplicate tenant, decode error,
   lint rejection, mid-stream disconnect — downgrades exactly one
   connection to a typed error reply; sessions never share mutable
   state, so tenants cannot cross-contaminate. *)

module Events = Hotpath_util.Events
module Bqueue = Hotpath_util.Bqueue
module Stream = Hotpath_trace.Serialize.Stream
module Decoder = Hotpath_trace.Serialize.Stream.Decoder
module Batch = Hotpath_trace.Batch
module Session = Hotpath_prediction.Session
module Scheme = Hotpath_prediction.Scheme

module Schemes = Hotpath_prediction.Schemes

(* Order-sensitive FNV-1a-style fold over (target, at_instance) pairs:
   lets a client assert two serves of the same trace predicted the same
   paths at the same positions without shipping the full list back. *)
let outcome_hash (o : Session.outcome) =
  let h = ref 0x811c9dc5 in
  let mix v = h := (!h lxor v) * 0x01000193 land max_int in
  Array.iter
    (fun (p : Session.prediction) ->
      mix p.Session.target;
      mix p.Session.at_instance)
    o.Session.predictions;
  !h

let ignore_sigpipe () =
  (* A peer that disappears between select and write must surface as
     EPIPE, not kill the process. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let max_handshake = 4096

module Server = struct
  type stats = {
    accepted : int;
    completed : int;
    errored : int;
    chunks : int;
    instances : int;
    queue_high_water : int;
  }

  type stream_state = {
    st_tenant : string;
    st_scheme : string;
    st_packed : (module Scheme.S);
    st_delays : int list;
    st_decoder : Decoder.t;
    st_queue : Batch.t Bqueue.t;
    (* Free batches, recycled by [drain]; at most queue capacity + 1
       ever live per tenant. *)
    mutable st_pool : Batch.t list;
    mutable st_session : Session.t option;
    mutable st_end : bool;
    mutable st_chunks : int;
  }

  type closing = { cl_reply : string; mutable cl_off : int }

  type conn_state =
    | Handshake of Buffer.t
    | Streaming of stream_state
    | Closing of closing

  type conn = {
    c_fd : Unix.file_descr;
    c_id : int;
    mutable c_tenant : string;
    mutable c_owns_tenant : bool;
    mutable c_eof : bool;
    mutable c_state : conn_state;
    mutable c_closed : bool;
  }

  type t = {
    t_listen : Unix.file_descr;
    t_path : string;
    t_events : Events.sink;
    t_queue_capacity : int;
    t_drain_burst : int;
    t_stop_r : Unix.file_descr;
    t_stop_w : Unix.file_descr;
    t_scratch : Bytes.t;
    t_tenants : (string, int) Hashtbl.t;
    mutable t_conns : conn list;
    mutable t_next_id : int;
    mutable t_stopping : bool;
    mutable t_accepted : int;
    mutable t_completed : int;
    mutable t_errored : int;
    mutable t_chunks : int;
    mutable t_instances : int;
    mutable t_queue_hw : int;
  }

  let socket_path t = t.t_path

  let create ?(events = Events.null) ?(queue_capacity = 8) ?(drain_burst = 4)
      ~socket_path () =
    if queue_capacity < 1 then
      invalid_arg "Serve.Server.create: queue_capacity must be >= 1";
    if drain_burst < 1 then
      invalid_arg "Serve.Server.create: drain_burst must be >= 1";
    ignore_sigpipe ();
    (try if Sys.file_exists socket_path then Sys.remove socket_path
     with Sys_error _ -> ());
    let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.bind listen (Unix.ADDR_UNIX socket_path) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close listen with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "bind %s: %s" socket_path (Unix.error_message e))
    | () ->
      Unix.listen listen 64;
      Unix.set_nonblock listen;
      let stop_r, stop_w = Unix.pipe () in
      Ok
        {
          t_listen = listen;
          t_path = socket_path;
          t_events = events;
          t_queue_capacity = queue_capacity;
          t_drain_burst = drain_burst;
          t_stop_r = stop_r;
          t_stop_w = stop_w;
          t_scratch = Bytes.create 65536;
          t_tenants = Hashtbl.create 16;
          t_conns = [];
          t_next_id = 0;
          t_stopping = false;
          t_accepted = 0;
          t_completed = 0;
          t_errored = 0;
          t_chunks = 0;
          t_instances = 0;
          t_queue_hw = 0;
        }

  let stop t =
    try ignore (Unix.write t.t_stop_w (Bytes.make 1 'x') 0 1 : int)
    with Unix.Unix_error _ -> ()

  let stats t =
    {
      accepted = t.t_accepted;
      completed = t.t_completed;
      errored = t.t_errored;
      chunks = t.t_chunks;
      instances = t.t_instances;
      queue_high_water = t.t_queue_hw;
    }

  (* ---------------------------------------------------------------- *)
  (* Per-connection transitions                                        *)
  (* ---------------------------------------------------------------- *)

  let release_tenant t conn =
    if conn.c_owns_tenant then begin
      conn.c_owns_tenant <- false;
      match Hashtbl.find_opt t.t_tenants conn.c_tenant with
      | Some id when id = conn.c_id -> Hashtbl.remove t.t_tenants conn.c_tenant
      | _ -> ()
    end

  let note_queue_hw t conn =
    match conn.c_state with
    | Streaming st ->
      t.t_queue_hw <- max t.t_queue_hw (Bqueue.high_water st.st_queue)
    | Handshake _ | Closing _ -> ()

  let set_closing t conn reply =
    note_queue_hw t conn;
    conn.c_state <- Closing { cl_reply = reply; cl_off = 0 }

  let error_reply ~conn ~tenant ~code ~message =
    let buf = Buffer.create 128 in
    Events.serve_error (Events.of_buffer buf) ~conn ~tenant ~code ~message;
    Buffer.contents buf

  let fail t conn ~code ~message =
    t.t_errored <- t.t_errored + 1;
    Events.serve_error t.t_events ~conn:conn.c_id ~tenant:conn.c_tenant ~code
      ~message;
    release_tenant t conn;
    set_closing t conn
      (error_reply ~conn:conn.c_id ~tenant:conn.c_tenant ~code ~message)

  let close_conn t conn =
    if not conn.c_closed then begin
      conn.c_closed <- true;
      release_tenant t conn;
      note_queue_hw t conn;
      try Unix.close conn.c_fd with Unix.Unix_error _ -> ()
    end

  let attach t conn st program =
    match
      Session.create ~lint:true st.st_packed ~delays:st.st_delays ~program
        ~table:(Stream.table st.st_decoder)
    with
    | exception Invalid_argument m -> fail t conn ~code:"handshake" ~message:m
    | Error e -> fail t conn ~code:"lint" ~message:e
    | Ok session ->
      st.st_session <- Some session;
      Events.serve_attach t.t_events ~conn:conn.c_id ~tenant:st.st_tenant
        ~scheme:st.st_scheme ~delays:(List.length st.st_delays)

  let acquire_batch st =
    match st.st_pool with
    | b :: rest ->
      st.st_pool <- rest;
      b
    | [] -> Batch.create ()

  let release_batch st b =
    Batch.clear b;
    st.st_pool <- b :: st.st_pool

  (* Decode buffered bytes into the batch queue until the queue is full,
     the frames run out, or the end frame lands.  Instance frames decode
     straight into a pooled batch; cold frames borrow one and return it
     untouched. *)
  let rec pump t conn st =
    match conn.c_state with
    | Streaming _ when (not st.st_end) && not (Bqueue.is_full st.st_queue)
      -> (
      let batch = acquire_batch st in
      match Decoder.next_batch st.st_decoder batch with
      | Error e ->
        release_batch st batch;
        fail t conn ~code:"decode" ~message:e
      | Ok Decoder.B_need_more -> release_batch st batch
      | Ok (Decoder.B_program program) ->
        release_batch st batch;
        attach t conn st program;
        pump t conn st
      | Ok Decoder.B_batch ->
        let pushed = Bqueue.push st.st_queue batch in
        assert pushed;
        pump t conn st
      | Ok (Decoder.B_end _) ->
        release_batch st batch;
        st.st_end <- true)
    | _ -> ()

  let reply_ok ~tenant outcomes =
    let buf = Buffer.create 512 in
    let sink = Events.of_buffer buf in
    List.iter
      (fun (o : Session.outcome) ->
        Events.emit sink ~kind:"serve.result"
          [
            ("tenant", Events.Str tenant);
            ("scheme", Events.Str o.Session.scheme_name);
            ("delay", Events.Int o.Session.delay);
            ("instances", Events.Int o.Session.total_instances);
            ("predictions", Events.Int (Array.length o.Session.predictions));
            ("profiled", Events.Int o.Session.profiled_instances);
            ("captured", Events.Int o.Session.captured_instances);
            ("counter_space", Events.Int o.Session.counter_space);
            ("profiling_ops", Events.Int o.Session.profiling_ops);
            ("collection_ops", Events.Int o.Session.collection_ops);
            ("pred_hash", Events.Int (outcome_hash o));
          ])
      outcomes;
    Events.emit sink ~kind:"serve.ok" [ ("tenant", Events.Str tenant) ];
    Buffer.contents buf

  let finish_conn t conn st session =
    let outcomes = Session.finish session in
    let instances = Session.instances session in
    let predictions =
      List.fold_left
        (fun a (o : Session.outcome) -> a + Array.length o.Session.predictions)
        0 outcomes
    in
    t.t_instances <- t.t_instances + instances;
    t.t_completed <- t.t_completed + 1;
    Events.serve_done t.t_events ~conn:conn.c_id ~tenant:st.st_tenant
      ~instances ~chunks:st.st_chunks ~predictions;
    release_tenant t conn;
    set_closing t conn (reply_ok ~tenant:st.st_tenant outcomes)

  let drain t conn st session =
    let budget = ref t.t_drain_burst in
    let blocked = ref false in
    while (not !blocked) && !budget > 0 do
      match Bqueue.pop st.st_queue with
      | None -> blocked := true
      | Some batch -> (
        decr budget;
        let res = Session.push_batch session batch in
        release_batch st batch;
        match res with
        | Ok () ->
          st.st_chunks <- st.st_chunks + 1;
          t.t_chunks <- t.t_chunks + 1
        | Error e ->
          blocked := true;
          fail t conn ~code:"lint" ~message:e)
    done

  (* One scheduling step for a streaming connection: replay up to a
     burst of queued chunks, refill the queue from the decoder, then
     settle — finish (end frame seen and fully replayed) or declare a
     disconnect (EOF with the decoder stuck mid-frame). *)
  let process t conn =
    match conn.c_state with
    | Handshake _ | Closing _ -> ()
    | Streaming st -> (
      (match st.st_session with
      | Some session -> drain t conn st session
      | None -> ());
      match conn.c_state with
      | Handshake _ | Closing _ -> ()
      | Streaming _ -> (
        pump t conn st;
        match conn.c_state with
        | Handshake _ | Closing _ -> ()
        | Streaming _ ->
          if st.st_end then begin
            if Bqueue.is_empty st.st_queue then
              match st.st_session with
              | Some session -> finish_conn t conn st session
              | None -> ()
          end
          else if conn.c_eof && not (Bqueue.is_full st.st_queue) then
            fail t conn ~code:"disconnect"
              ~message:
                (Printf.sprintf
                   "connection closed mid-stream (%d bytes buffered)"
                   (Decoder.buffered st.st_decoder))))

  let on_eof t conn =
    conn.c_eof <- true;
    match conn.c_state with
    | Handshake buf ->
      if Buffer.length buf = 0 then
        (* Silent connect/close probe (readiness checks); not an error. *)
        close_conn t conn
      else
        fail t conn ~code:"handshake"
          ~message:"connection closed during handshake"
    | Streaming _ | Closing _ ->
      (* Streaming: legal — the client half-closed after its last byte;
         [process] settles it into finish or disconnect. *)
      ()

  let handshake t conn line =
    let parts =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun s -> s <> "")
    in
    match parts with
    | [ magic; tenant; scheme; delays ] when magic = "HPSERVE1" -> (
      match Schemes.of_name scheme with
      | Error message -> fail t conn ~code:"handshake" ~message
      | Ok packed -> (
        match
          String.split_on_char ',' delays
          |> List.map (fun s ->
                 match int_of_string_opt s with
                 | Some d when d >= 1 -> d
                 | Some _ | None -> raise Exit)
        with
        | exception Exit ->
          fail t conn ~code:"handshake"
            ~message:"delays must be a comma-separated list of integers >= 1"
        | ds ->
          if Hashtbl.mem t.t_tenants tenant then begin
            conn.c_tenant <- tenant;
            fail t conn ~code:"busy"
              ~message:(Printf.sprintf "tenant %s is already streaming" tenant)
          end
          else begin
            conn.c_tenant <- tenant;
            conn.c_owns_tenant <- true;
            Hashtbl.replace t.t_tenants tenant conn.c_id;
            conn.c_state <-
              Streaming
                {
                  st_tenant = tenant;
                  st_scheme = scheme;
                  st_packed = packed;
                  st_delays = ds;
                  st_decoder = Decoder.create ();
                  st_queue = Bqueue.create ~capacity:t.t_queue_capacity;
                  st_pool = [];
                  st_session = None;
                  st_end = false;
                  st_chunks = 0;
                }
          end))
    | _ ->
      fail t conn ~code:"handshake"
        ~message:
          "malformed handshake (want: HPSERVE1 <tenant> <scheme> <d1,d2,...>)"

  let rec feed_bytes t conn data pos len =
    match conn.c_state with
    | Closing _ ->
      (* Draining a failed client so it can finish writing and collect
         the error reply; bytes go nowhere. *)
      ()
    | Streaming st ->
      Decoder.feed st.st_decoder data ~pos ~len;
      pump t conn st
    | Handshake buf -> (
      let nl = ref (-1) in
      (try
         for i = pos to pos + len - 1 do
           if data.[i] = '\n' then begin
             nl := i;
             raise Exit
           end
         done
       with Exit -> ());
      match !nl with
      | -1 ->
        Buffer.add_substring buf data pos len;
        if Buffer.length buf > max_handshake then
          fail t conn ~code:"handshake" ~message:"handshake line too long"
      | nl ->
        Buffer.add_substring buf data pos (nl - pos);
        if Buffer.length buf > max_handshake then
          fail t conn ~code:"handshake" ~message:"handshake line too long"
        else begin
          handshake t conn (Buffer.contents buf);
          let rest = pos + len - (nl + 1) in
          if rest > 0 then feed_bytes t conn data (nl + 1) rest
        end)

  let handle_read t conn =
    match Unix.read conn.c_fd t.t_scratch 0 (Bytes.length t.t_scratch) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> on_eof t conn
    | 0 -> on_eof t conn
    | n -> feed_bytes t conn (Bytes.sub_string t.t_scratch 0 n) 0 n

  let handle_write _t conn cl =
    let len = String.length cl.cl_reply - cl.cl_off in
    if len > 0 then
      match Unix.write_substring conn.c_fd cl.cl_reply cl.cl_off len with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) ->
        (* Peer is gone; abandon the reply so the conn can close. *)
        cl.cl_off <- String.length cl.cl_reply;
        conn.c_eof <- true
      | n -> cl.cl_off <- cl.cl_off + n

  let accept_burst t =
    let rec go () =
      match Unix.accept t.t_listen with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((ECONNABORTED | EINTR), _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> ()
      | fd, _ ->
        Unix.set_nonblock fd;
        let id = t.t_next_id in
        t.t_next_id <- id + 1;
        t.t_accepted <- t.t_accepted + 1;
        Events.serve_accept t.t_events ~conn:id;
        t.t_conns <-
          t.t_conns
          @ [
              {
                c_fd = fd;
                c_id = id;
                c_tenant = "";
                c_owns_tenant = false;
                c_eof = false;
                c_state = Handshake (Buffer.create 64);
                c_closed = false;
              };
            ];
        go ()
    in
    go ()

  let work_pending t =
    List.exists
      (fun conn ->
        match conn.c_state with
        | Streaming st ->
          conn.c_eof || not (Bqueue.is_empty st.st_queue)
        | Handshake _ | Closing _ -> false)
      t.t_conns

  let drain_stop_pipe t =
    let b = Bytes.create 16 in
    try ignore (Unix.read t.t_stop_r b 0 16 : int)
    with Unix.Unix_error _ -> ()

  let run t =
    ignore_sigpipe ();
    let rec loop () =
      t.t_conns <- List.filter (fun c -> not c.c_closed) t.t_conns;
      if not t.t_stopping then begin
        List.iter (process t) t.t_conns;
        List.iter
          (fun conn ->
            match conn.c_state with
            | Closing cl
              when cl.cl_off >= String.length cl.cl_reply && conn.c_eof ->
              close_conn t conn
            | _ -> ())
          t.t_conns;
        t.t_conns <- List.filter (fun c -> not c.c_closed) t.t_conns;
        let reads =
          t.t_stop_r :: t.t_listen
          :: List.filter_map
               (fun conn ->
                 if conn.c_eof then None
                 else
                   match conn.c_state with
                   | Handshake _ | Closing _ -> Some conn.c_fd
                   | Streaming st ->
                     (* Backpressure: a full chunk queue takes the fd out
                        of the read set; bytes pile up in the kernel
                        buffer and the client's writes stall. *)
                     if Bqueue.is_full st.st_queue then None
                     else Some conn.c_fd)
               t.t_conns
        in
        let writes =
          List.filter_map
            (fun conn ->
              match conn.c_state with
              | Closing cl when cl.cl_off < String.length cl.cl_reply ->
                Some conn.c_fd
              | _ -> None)
            t.t_conns
        in
        let timeout = if work_pending t then 0.0 else 0.2 in
        let rs, ws, _ =
          try Unix.select reads writes [] timeout
          with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
        in
        if List.mem t.t_stop_r rs then begin
          drain_stop_pipe t;
          t.t_stopping <- true
        end;
        if (not t.t_stopping) && List.mem t.t_listen rs then accept_burst t;
        List.iter
          (fun conn ->
            if (not conn.c_closed) && List.mem conn.c_fd rs then
              handle_read t conn)
          t.t_conns;
        List.iter
          (fun conn ->
            if not conn.c_closed then
              match conn.c_state with
              | Closing cl when List.mem conn.c_fd ws -> handle_write t conn cl
              | _ -> ())
          t.t_conns;
        loop ()
      end
    in
    loop ();
    (* Shutdown: best-effort flush of pending replies, typed error for
       anything still mid-flight, then emit lifetime stats. *)
    let active =
      List.fold_left
        (fun n conn ->
          (match conn.c_state with
          | Closing cl -> handle_write t conn cl
          | Handshake _ | Streaming _ ->
            t.t_errored <- t.t_errored + 1;
            Events.serve_error t.t_events ~conn:conn.c_id
              ~tenant:conn.c_tenant ~code:"io" ~message:"server shutting down");
          close_conn t conn;
          n + 1)
        0 t.t_conns
    in
    t.t_conns <- [];
    Events.serve_stats t.t_events ~accepted:t.t_accepted
      ~completed:t.t_completed ~errored:t.t_errored ~active
      ~instances:t.t_instances;
    (try Unix.close t.t_listen with Unix.Unix_error _ -> ());
    (try Unix.close t.t_stop_r with Unix.Unix_error _ -> ());
    (try Unix.close t.t_stop_w with Unix.Unix_error _ -> ());
    try Sys.remove t.t_path with Sys_error _ -> ()
end

module Client = struct
  let wait_ready ?(attempts = 500) ?(delay_s = 0.01) socket_path =
    let rec go n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
      | () ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        true
      | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if n <= 1 then false
        else begin
          Unix.sleepf delay_s;
          go (n - 1)
        end
    in
    go attempts

  let send ~socket_path ~tenant ~scheme ~delays ?(chunk_bytes = 65536) trace =
    if chunk_bytes < 1 then
      invalid_arg "Serve.Client.send: chunk_bytes must be >= 1";
    ignore_sigpipe ();
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "connect %s: %s" socket_path (Unix.error_message e))
    | () ->
      let send_all s pos len =
        let off = ref pos in
        while !off < pos + len do
          off := !off + Unix.write_substring fd s !off (pos + len - !off)
        done
      in
      let read_reply () =
        let buf = Buffer.create 1024 in
        let b = Bytes.create 4096 in
        let rec go () =
          match Unix.read fd b 0 4096 with
          | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
          | exception Unix.Unix_error (EINTR, _, _) -> go ()
          | 0 -> ()
          | n ->
            Buffer.add_subbytes buf b 0 n;
            go ()
        in
        go ();
        Buffer.contents buf
      in
      let raw =
        let header =
          Printf.sprintf "HPSERVE1 %s %s %s\n" tenant scheme
            (String.concat "," (List.map string_of_int delays))
        in
        match send_all header 0 (String.length header) with
        | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
          (* The server rejected us mid-send; its reply (if any) may
             still be in our receive buffer. *)
          read_reply ()
        | () -> (
          match
            let len = String.length trace in
            let off = ref 0 in
            while !off < len do
              let n = min chunk_bytes (len - !off) in
              send_all trace !off n;
              off := !off + n
            done
          with
          | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
            read_reply ()
          | () ->
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            read_reply ())
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if raw = "" then Error "no reply from server"
      else begin
        let lines =
          String.split_on_char '\n' raw
          |> List.filter (fun l -> String.trim l <> "")
        in
        let parsed =
          List.map
            (fun l ->
              match Events.parse_line l with
              | Ok fields -> fields
              | Error e ->
                [
                  ("ev", Events.Str "client.parse-error");
                  ("message", Events.Str e);
                  ("line", Events.Str l);
                ])
            lines
        in
        Ok parsed
      end
end
