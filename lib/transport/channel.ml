exception Protocol_error of string
exception Busy of { retry_after_s : float }
exception Timeout
exception Stalled
exception Connection_lost of string
exception Frame_corrupt of string
exception Resume_rejected of string
exception Quota_exceeded of { quota : string; limit : int; requested : int }

module Telemetry = Ppst_telemetry.Telemetry
module Metrics = Ppst_telemetry.Metrics

(* Per-round observability: every request/reply pair updates these
   process-wide metrics and, at Debug, emits a "channel.round" point with
   opcode/sizes/latency — the record ppst_analyze's trace table
   aggregates. *)
let m_frame_bytes =
  Metrics.histogram
    ~buckets:[| 64.; 256.; 1024.; 4096.; 16384.; 65536.; 262144.; 1048576. |]
    "transport.frame.bytes"

let m_round_latency =
  Metrics.histogram
    ~buckets:[| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.; 3. |]
    "transport.round.latency_s"

let m_rounds = Metrics.counter "transport.rounds"

(* Fault-tolerance counters: how often the transport had to recover. *)
let m_connection_lost = Metrics.counter "transport.connection.lost"
let m_crc_failures = Metrics.counter "transport.crc.failures"
let m_resume_attempts = Metrics.counter "transport.resume.attempts"
let m_resume_ok = Metrics.counter "transport.resume.ok"
let m_resume_replayed = Metrics.counter "transport.resume.replayed"

let record_round_telemetry ~opcode ~request_bytes ~reply_bytes ~latency_s =
  Metrics.observe m_frame_bytes (float_of_int request_bytes);
  Metrics.observe m_frame_bytes (float_of_int reply_bytes);
  Metrics.observe m_round_latency latency_s;
  Metrics.incr m_rounds;
  Telemetry.event ~level:Telemetry.Debug ~name:"channel.round"
    ~attrs:
      [
        ("opcode", Telemetry.Opcode opcode);
        ("request_bytes", Telemetry.Size request_bytes);
        ("reply_bytes", Telemetry.Size reply_bytes);
        ("latency_s", Telemetry.Duration latency_s);
      ]
    ()

let protocol_error fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let conn_lost fmt =
  Printf.ksprintf
    (fun s ->
      Metrics.incr m_connection_lost;
      raise (Connection_lost s))
    fmt

let frame_corrupt fmt =
  Printf.ksprintf
    (fun s ->
      Metrics.incr m_crc_failures;
      raise (Frame_corrupt s))
    fmt

(* Frames on the wire: 4-byte big-endian length, then the message bytes.
   A hard cap guards against forged lengths: a channel fixes its own at
   construction, and the raw frame I/O takes one per call. *)
let default_max_frame = 256 * 1024 * 1024

let check_cap = function
  | Some n when n < 16 -> invalid_arg "Channel: frame cap below 16 bytes"
  | _ -> ()

(* Everything a dropped TCP connection needs to be re-established and
   the session resumed in place. *)
type reconnect = {
  host : string;
  port : int;
  offered : int;  (* capability bits re-offered in Hello / Resume *)
  retry : Retry.policy option;
  rng : Ppst_rng.Secure_rng.t;  (* backoff jitter *)
  sleep : float -> unit;
}

type tcp_state = {
  mutable fd : Unix.file_descr;
  reconnect : reconnect option;  (* None: raw fd, not reconnectable *)
  faults : Faults.t option;
  mutable crc : bool;  (* CRC-32 trailers active on this connection *)
  mutable granted : int;  (* flags the server granted *)
  mutable token : string;  (* resume token; "" = session not resumable *)
  mutable rounds : int;  (* reply frames fully received, errors included *)
}

type backend =
  | Local of (Message.request -> Message.reply)
  | Tcp of tcp_state

type t = {
  backend : backend;
  max_frame : int;
  stats : Stats.t;
  (* Wall budget for the operation currently driving this channel:
     checked before every round, threaded into the reconnect/resume
     retries, and mapped onto the frame-read deadline.  Mutable so a
     caller (e.g. Query) can install per-candidate sub-budgets. *)
  mutable budget : Retry.Budget.t option;
  mutable server_seconds : float;
  mutable closed : bool;
}

let stats t = t.stats
let server_seconds t = t.server_seconds
let budget t = t.budget
let set_budget t b = t.budget <- b

(* The budget's absolute deadline, for read_frame.  Only meaningful when
   the budget runs on the monotonic clock (the default); a test-injected
   fake clock should drive local channels, which never read frames. *)
let budget_deadline t = Option.map Retry.Budget.deadline t.budget

let check_budget t =
  match t.budget with Some b -> Retry.Budget.check b | None -> ()

let offered_flags t =
  match t.backend with
  | Local _ -> 0
  | Tcp { reconnect = Some rc; _ } -> rc.offered
  | Tcp _ -> 0

let negotiated_flags t =
  match t.backend with Local _ -> 0 | Tcp st -> st.granted

let resume_token t =
  match t.backend with
  | Tcp { token; _ } when token <> "" -> Some token
  | _ -> None

(* A write to a peer-reset socket must surface as EPIPE (handled by the
   caller), not as a process-killing SIGPIPE — which is exactly what a
   client racing a server-side timeout close would otherwise get.
   Called on every socket construction: setting the same disposition
   again is harmless from any thread, and a no-op where SIGPIPE does not
   exist. *)
let setup_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()

(* Retry a syscall interrupted by a signal (EINTR) — without this, any
   signal delivered mid-read kills the session with a spurious
   Protocol_error.  EAGAIN/EWOULDBLOCK are retried too: our sockets are
   blocking, so these only appear in rare kernel corner cases (e.g.
   after select wakeups) and mean "try again", never "give up". *)
let rec retry_on_intr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    retry_on_intr f

(* The connection-level errno class: the peer (or the network) is gone,
   which the fault-tolerant paths treat as recoverable.  Everything else
   (EBADF, EINVAL, ...) stays a raw Unix_error — those are local bugs,
   and retrying them would hide the bug. *)
let map_conn_errors f =
  try f ()
  with
  | Unix.Unix_error
      ( (( Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.ENETRESET
         | Unix.ENETDOWN | Unix.ENETUNREACH | Unix.ETIMEDOUT
         | Unix.EHOSTUNREACH | Unix.EHOSTDOWN | Unix.ENOTCONN
         | Unix.ESHUTDOWN ) as e),
        fn,
        _ ) ->
    conn_lost "%s: connection lost (%s)" fn (Unix.error_message e)

let drop_connection fd why =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  conn_lost "fault injection: %s" why

let put_u32_be b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 3) (Char.chr (v land 0xFF))

let write_frame ?max_frame:(cap = default_max_frame) ?(crc = false) ?faults fd payload =
  let payload_len = String.length payload in
  if payload_len > cap then protocol_error "frame too large: %d bytes" payload_len;
  (* With CRC negotiated, the body is payload ^ 4-byte big-endian CRC-32
     and the header length covers both.  Header and body still go out in
     one write: separate writes interact with Nagle + delayed ACK and
     add ~40 ms per round trip on loopback. *)
  let len = if crc then payload_len + 4 else payload_len in
  let frame = Bytes.create (4 + len) in
  put_u32_be frame 0 len;
  Bytes.blit_string payload 0 frame 4 payload_len;
  if crc then put_u32_be frame (4 + payload_len) (Crc32.digest payload);
  let total = 4 + len in
  let write_range first count =
    let rec go off remaining =
      if remaining > 0 then begin
        let n = retry_on_intr (fun () -> Unix.write fd frame off remaining) in
        go (off + n) (remaining - n)
      end
    in
    go first count
  in
  let action = match faults with None -> Faults.Pass | Some f -> Faults.next f in
  map_conn_errors (fun () ->
      match action with
      | Faults.Pass -> write_range 0 total
      | Faults.Drop -> drop_connection fd "connection dropped before send"
      | Faults.Corrupt k ->
        (* flip one bit of the body (trailer included), leaving the
           header intact: the frame arrives well-formed and the
           integrity check has to be the thing that catches it *)
        if len > 0 then begin
          let pos = 4 + (((k mod len) + len) mod len) in
          Bytes.set frame pos
            (Char.chr (Char.code (Bytes.get frame pos) lxor 0x20))
        end;
        write_range 0 total
      | Faults.Delay s ->
        Thread.delay s;
        write_range 0 total
      | Faults.Short_write ->
        write_range 0 (max 1 (total / 2));
        drop_connection fd "connection dropped mid-frame (short write)"
      | Faults.Duplicate ->
        write_range 0 total;
        write_range 0 total;
        drop_connection fd "connection dropped after duplicated frame"
      | Faults.Crash ->
        (* deterministic process death at this frame index — only
           meaningful inside a supervised worker (Supervisor restarts
           it and the session fails over via its spooled snapshot) *)
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false
      | Faults.Crash_mid_write ->
        write_range 0 (max 1 (total / 2));
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        assert false)

(* Block until [fd] is readable or the absolute monotonic [deadline]
   passes.  Recomputes the remaining budget after every EINTR wakeup, so
   a signal storm cannot extend the deadline. *)
let wait_readable fd deadline =
  let rec go () =
    let remaining = deadline -. Monoclock.now () in
    if remaining <= 0.0 then raise Timeout;
    match Unix.select [ fd ] [] [] remaining with
    | [], _, _ -> raise Timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* [?progress_timeout_s] is the slow-peer watchdog: every chunk of the
   read must arrive within that many seconds of the previous one, or the
   read fails with [Stalled].  This is a *progress* bound, deliberately
   distinct from the absolute [?deadline]: a peer trickling one byte per
   idle-timeout window satisfies any per-frame deadline reset yet never
   finishes a frame — the exact slowloris shape that holds a session
   slot forever on servers configured without an idle timeout.  With
   [~armed:false] the watchdog only starts ticking after the first byte
   lands, so a connection sitting quietly between frames is governed by
   the session's idle policy, not the watchdog. *)
let read_exactly ?deadline ?progress_timeout_s ?(armed = true) fd n =
  let buf = Bytes.create n in
  let progress_deadline_after_chunk () =
    match progress_timeout_s with
    | None -> None
    | Some s -> Some (Monoclock.now () +. s)
  in
  let rec go off progress_deadline =
    if off >= n then Some buf
    else begin
      (match (deadline, progress_deadline) with
       | None, None -> ()
       | d, p ->
         let eff =
           match (d, p) with
           | Some d, Some p -> Float.min d p
           | Some d, None -> d
           | None, Some p -> p
           | None, None -> assert false
         in
         (try wait_readable fd eff
          with Timeout ->
            (* which budget ran out?  the absolute deadline is session
               policy and wins the tie; only a pure progress expiry is a
               stall *)
            (match d with
             | Some d when d -. Monoclock.now () <= 0.0 -> raise Timeout
             | _ -> if p <> None then raise Stalled else raise Timeout)));
      match retry_on_intr (fun () -> Unix.read fd buf off (n - off)) with
      | 0 -> if off = 0 then None else conn_lost "connection lost (eof mid-frame)"
      | k -> go (off + k) (progress_deadline_after_chunk ())
    end
  in
  go 0 (if armed then progress_deadline_after_chunk () else None)

let get_u32_be s off =
  let b i = Char.code s.[off + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let read_frame ?max_frame:(cap = default_max_frame) ?deadline ?progress_timeout_s
    ?(crc = false) ?faults fd =
  let action = match faults with None -> Faults.Pass | Some f -> Faults.next f in
  (match action with
   | Faults.Drop | Faults.Short_write | Faults.Duplicate ->
     (* short-write and duplicate only make sense on the send side;
        degrade to a plain drop when the injector fires on a receive *)
     drop_connection fd "connection dropped before receive"
   | Faults.Delay s -> Thread.delay s
   | Faults.Crash | Faults.Crash_mid_write ->
     (* process death is process death whichever direction fired *)
     Unix.kill (Unix.getpid ()) Sys.sigkill
   | Faults.Pass | Faults.Corrupt _ -> ());
  map_conn_errors (fun () ->
      (* The watchdog arms on the header's first byte: a quiet connection
         between frames answers to the idle policy, but once a frame has
         started every subsequent chunk — header remainder and body —
         must keep arriving. *)
      match read_exactly ?deadline ?progress_timeout_s ~armed:false fd 4 with
      | None -> None
      | Some header ->
        let len = get_u32_be (Bytes.to_string header) 0 in
        if len > cap + (if crc then 4 else 0) then
          protocol_error "frame length %d exceeds cap" len;
        (match read_exactly ?deadline ?progress_timeout_s fd len with
         | None -> conn_lost "connection lost (eof in frame body)"
         | Some body ->
           (match action with
            | Faults.Corrupt k when len > 0 ->
              let pos = ((k mod len) + len) mod len in
              Bytes.set body pos
                (Char.chr (Char.code (Bytes.get body pos) lxor 0x20))
            | _ -> ());
           let body = Bytes.to_string body in
           if not crc then Some body
           else begin
             if len < 4 then
               frame_corrupt "frame shorter than its CRC-32 trailer";
             let payload = String.sub body 0 (len - 4) in
             let expected = get_u32_be body (len - 4) in
             let actual = Crc32.digest payload in
             if actual <> expected then
               frame_corrupt "CRC-32 mismatch on a %d-byte frame" (len - 4);
             Some payload
           end))

let decode_reply bytes_str =
  match Message.decode bytes_str with
  | Message.Reply r -> r
  | Message.Request _ -> protocol_error "peer sent a request where a reply was expected"
  | exception Wire.Malformed m -> protocol_error "malformed reply: %s" m

let check_not_closed t = if t.closed then protocol_error "channel is closed"

let tcp_socket_connect ~host ~port =
  let addr =
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> failwith ("no address for host " ^ host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

(* The reject reason a restarted server sends when a resume token's
   boot-id prefix names a previous server incarnation (Server_loop).
   Matched as a prefix so the server may append detail after it. *)
let server_restarted_reason = "server-restarted"

let is_server_restarted reason =
  String.length reason >= String.length server_restarted_reason
  && String.sub reason 0 (String.length server_restarted_reason)
     = server_restarted_reason

let retryable_connect_errno = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ETIMEDOUT | Unix.EHOSTUNREACH
  | Unix.ENETUNREACH | Unix.ENETDOWN | Unix.EADDRNOTAVAIL -> true
  | _ -> false

(* Reconnect and re-attach to the parked server-side session: one
   Resume round trip per attempt, under the channel's retry policy.
   Returns [`Replayed reply] when the server already processed the
   in-flight request (its reply travels inside the Resume_ack — the
   round is never executed twice), [`In_sync] when the caller should
   re-send.  The handshake frames deliberately bypass the fault
   injector and CRC: recovery must work under any chaos profile, and
   CRC state is renegotiated by the ack itself. *)
let resume_session t st =
  let rc =
    match st.reconnect with
    | Some rc -> rc
    | None -> conn_lost "connection lost and channel is not reconnectable"
  in
  let cap = t.max_frame in
  let policy = match rc.retry with Some p -> p | None -> Retry.default_policy in
  let attempt_once () =
    Metrics.incr m_resume_attempts;
    (try Unix.close st.fd with Unix.Unix_error _ -> ());
    st.fd <- tcp_socket_connect ~host:rc.host ~port:rc.port;
    st.crc <- false;
    let encoded =
      Message.encode
        (Message.Request
           (Message.Resume
              { token = st.token; client_rounds = st.rounds; flags = rc.offered }))
    in
    Stats.record_sent t.stats ~bytes:(String.length encoded) ~values:0;
    write_frame ~max_frame:cap st.fd encoded;
    match read_frame ~max_frame:cap ?deadline:(budget_deadline t) st.fd with
    | None -> conn_lost "connection lost during resume handshake"
    | Some frame ->
      Stats.record_received t.stats ~bytes:(String.length frame) ~values:0;
      (match decode_reply frame with
       | Message.Resume_ack { server_rounds; reply; flags } ->
         st.granted <- flags;
         st.crc <- flags land Message.flag_crc32 <> 0;
         Metrics.incr m_resume_ok;
         if server_rounds > st.rounds then begin
           (* the lost frame was the reply, not the request: consume the
              replayed copy and re-align the round counter *)
           if String.length reply = 0 then
             protocol_error
               "resume: server is %d round(s) ahead but sent no replay"
               (server_rounds - st.rounds);
           st.rounds <- server_rounds - 1;
           Metrics.incr m_resume_replayed;
           `Replayed reply
         end
         else if server_rounds = st.rounds then `In_sync
         else
           protocol_error "resume: server behind client (%d < %d rounds)"
             server_rounds st.rounds
       | Message.Resume_reject { reason } -> raise (Resume_rejected reason)
       | Message.Busy { retry_after_s } -> raise (Busy { retry_after_s })
       | Message.Error_reply m -> protocol_error "peer error during resume: %s" m
       | _ -> protocol_error "unexpected reply to resume")
  in
  Retry.with_retry ~policy ~rng:rc.rng ~sleep:rc.sleep ?budget:t.budget
    ~classify:(function
      | Connection_lost _ | Frame_corrupt _ -> `Retry
      (* a whole-server restart is terminal: the token's boot-id prefix
         can never match again, so burning the retry budget only delays
         the inevitable.  Fail fast with the typed reason intact. *)
      | Resume_rejected reason when is_server_restarted reason -> `Fail
      (* any other reject may be the park/reconnect race (the server
         thread has not parked the state yet): retry briefly before
         giving up *)
      | Resume_rejected _ -> `Retry
      | Busy { retry_after_s } -> `Retry_after retry_after_s
      | Unix.Unix_error (e, _, _) when retryable_connect_errno e -> `Retry
      | _ -> `Fail)
    attempt_once

let request t req =
  check_not_closed t;
  (* One whole-operation wall budget gates every round: an expired
     budget surfaces as the typed [Retry.Budget.Exceeded] before any
     further bytes move, on local and TCP backends alike. *)
  check_budget t;
  let cap = t.max_frame in
  let msg = Message.Request req in
  let encoded = Message.encode msg in
  let t0 = Telemetry.now () in
  Stats.record_sent t.stats ~bytes:(String.length encoded)
    ~values:(Message.values_in msg);
  let reply, reply_bytes =
    match t.backend with
    | Local handler ->
      (* Round-trip through the codec so byte accounting matches a socket
         run (the frame cap included), then time the server-side work
         separately. *)
      if String.length encoded > cap then
        protocol_error "frame too large: %d bytes" (String.length encoded);
      let decoded_req =
        match Message.decode encoded with
        | Message.Request r -> r
        | Message.Reply _ -> protocol_error "request decoded as reply"
      in
      let t0 = Unix.gettimeofday () in
      let reply =
        try handler decoded_req
        with e -> Message.Error_reply (Printexc.to_string e)
      in
      t.server_seconds <- t.server_seconds +. (Unix.gettimeofday () -. t0);
      let reply_encoded = Message.encode (Message.Reply reply) in
      if String.length reply_encoded > cap then
        protocol_error "frame length %d exceeds cap" (String.length reply_encoded);
      Stats.record_received t.stats ~bytes:(String.length reply_encoded)
        ~values:(Message.values_in (Message.Reply reply));
      (decode_reply reply_encoded, String.length reply_encoded)
    | Tcp st ->
      (* One logical round, surviving connection loss: on a typed
         transport fault, reconnect + resume and either consume the
         replayed reply or re-send.  Consecutive failures of the same
         round are bounded so a drop-everything chaos profile degrades
         to a typed error instead of a livelock. *)
      let max_consecutive_failures =
        match st.reconnect with
        | Some { retry = Some p; _ } -> p.Retry.max_attempts
        | _ -> Retry.default_policy.Retry.max_attempts
      in
      let rec round failures =
        match
          write_frame ~max_frame:cap ~crc:st.crc ?faults:st.faults st.fd encoded;
          (match
             read_frame ~max_frame:cap ?deadline:(budget_deadline t)
               ~crc:st.crc ?faults:st.faults st.fd
           with
          | None -> conn_lost "connection closed by peer"
          | Some frame -> frame)
        with
        | frame -> frame
        | exception ((Connection_lost _ | Frame_corrupt _) as e) ->
          Stats.record_failure t.stats;
          if st.token = "" || failures + 1 >= max_consecutive_failures then
            raise e;
          (match resume_session t st with
           | `Replayed frame -> frame
           | `In_sync -> round (failures + 1))
      in
      let frame = round 0 in
      let reply = decode_reply frame in
      st.rounds <- st.rounds + 1;
      (* Capability negotiation: the server's grant rides in Welcome.
         CRC turns on only now — the Welcome frame itself is plain, the
         same on-wire order the server follows. *)
      (match (req, reply) with
       | Message.Hello _, Message.Welcome { flags; resume_token; _ } ->
         st.granted <- flags;
         st.crc <- flags land Message.flag_crc32 <> 0;
         st.token <-
           (if flags land Message.flag_resume <> 0 then resume_token else "")
       | _ -> ());
      Stats.record_received t.stats ~bytes:(String.length frame)
        ~values:(Message.values_in (Message.Reply reply));
      (reply, String.length frame)
  in
  Stats.record_round t.stats;
  record_round_telemetry
    ~opcode:(if String.length encoded > 0 then Char.code encoded.[0] else 0)
    ~request_bytes:(String.length encoded) ~reply_bytes
    ~latency_s:(Telemetry.now () -. t0);
  match reply with
  | Message.Error_reply m -> protocol_error "peer error: %s" m
  | Message.Busy { retry_after_s } -> raise (Busy { retry_after_s })
  | Message.Quota_exceeded { quota; limit; requested } ->
    raise (Quota_exceeded { quota; limit; requested })
  | r -> r

let close t =
  if not t.closed then begin
    (try
       match (request t Message.Bye, t.backend) with
       | Message.Bye_ack { server_seconds }, Tcp _ ->
         (* The remote server reports its measured handler total in the
            accounting reply; local channels timed the handler directly. *)
         t.server_seconds <- t.server_seconds +. server_seconds
       | _ -> ()
     with _ -> ());
    t.closed <- true;
    match t.backend with
    | Local _ -> ()
    | Tcp st -> (try Unix.close st.fd with Unix.Unix_error _ -> ())
  end

let make ?(max_frame = default_max_frame) ?budget backend =
  {
    backend;
    max_frame;
    stats = Stats.create ();
    budget;
    server_seconds = 0.0;
    closed = false;
  }

let local ?max_frame handler =
  check_cap max_frame;
  make ?max_frame (Local handler)

let connect ?max_frame ?(crc = true) ?(resume = true) ?retry ?rng ?sleep
    ?budget ?faults ~host ~port () =
  check_cap max_frame;
  setup_sigpipe ();
  let rng =
    match rng with Some r -> r | None -> Ppst_rng.Secure_rng.system ()
  in
  let sleep = match sleep with Some s -> s | None -> Thread.delay in
  let connect_once () = tcp_socket_connect ~host ~port in
  let fd =
    match retry with
    | None -> connect_once ()
    | Some policy ->
      Retry.with_retry ~policy ~rng ~sleep ?budget
        ~classify:(function
          | Unix.Unix_error (e, _, _) when retryable_connect_errno e -> `Retry
          | Connection_lost _ -> `Retry
          | _ -> `Fail)
        connect_once
  in
  let offered =
    (if crc then Message.flag_crc32 else 0)
    lor if resume then Message.flag_resume else 0
  in
  make ?max_frame ?budget
    (Tcp
       {
         fd;
         reconnect = Some { host; port; offered; retry; rng; sleep };
         faults;
         crc = false;
         granted = 0;
         token = "";
         rounds = 0;
       })
