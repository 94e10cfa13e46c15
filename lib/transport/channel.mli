(** Client-side view of the two-party link: a request/reply channel with
    full communication accounting.

    Two implementations:
    - {!local}: in-process, backed by a server-side handler function.
      Every message is still serialized and deserialized through the real
      wire format, so byte counts equal what a socket run would transfer;
      the handler's elapsed time is accumulated separately, enabling
      per-party timing (paper Figures 6 and 10).
    - {!connect}: TCP over [Unix], with length-prefixed frames, to a
      {!Server_loop} built on the same frame primitives.

    Both constructors take the same optional [?max_frame]: a channel's
    frame cap is fixed at construction, not process-global state. *)

exception Protocol_error of string
(** Raised on an [Error_reply] from the peer or a transport-level
    violation (unexpected reply kind, short read, ...). *)

exception Busy of { retry_after_s : float }
(** Raised by {!request} when the peer answers with [Message.Busy]: the
    server is at its concurrent-session capacity.  [retry_after_s] is
    the server's backoff hint. *)

exception Timeout
(** Raised by {!read_frame} when its [?deadline] passes before a full
    frame arrives. *)

exception Stalled
(** Raised by {!read_frame} when a frame {e in progress} stops making
    byte-level progress for longer than [?progress_timeout_s] — the
    slow-peer watchdog.  Distinct from {!Timeout} (absolute session
    deadline): a stall means the peer is actively trickling or has
    wedged mid-frame, the slowloris shape that would otherwise hold a
    session slot indefinitely on servers with no idle timeout. *)

exception Connection_lost of string
(** The peer (or the network) is gone: EOF mid-frame, [EPIPE],
    [ECONNRESET], [ETIMEDOUT] and friends — previously these leaked as
    raw [Unix.Unix_error] and bypassed accounting.  On a resumable
    channel {!request} recovers from this transparently (reconnect +
    [Resume]); it only escapes when the session has no resume token or
    recovery itself exhausted its retry budget. *)

exception Frame_corrupt of string
(** A frame failed its negotiated CRC-32 integrity check.  The payload
    is never handed to the codec (garbage must not reach
    [Paillier.decrypt]); on a resumable channel the same reconnect +
    resume path as {!Connection_lost} applies. *)

exception Resume_rejected of string
(** The server answered [Resume] with [Resume_reject]: the token is
    unknown, expired or evicted.  The session is unrecoverable; start
    over from [Hello].  When {!is_server_restarted} holds on the
    reason, the {e whole server} restarted (the token's boot-id prefix
    names a dead incarnation) and the channel fails fast instead of
    burning the retry budget — no later attempt can ever succeed. *)

val server_restarted_reason : string
(** The reason prefix a restarted server puts in [Resume_reject] when
    the presented token was minted by a previous incarnation. *)

val is_server_restarted : string -> bool
(** Whether a {!Resume_rejected} reason carries the
    {!server_restarted_reason} prefix. *)

exception Quota_exceeded of { quota : string; limit : int; requested : int }
(** The server rejected a request at admission control
    ([Message.Quota_exceeded]): it would exceed the per-session budget
    named [quota].  Not retryable — the same request will always be
    rejected; shrink the request or negotiate a bigger budget out of
    band.  All three fields are public quantities (SECURITY.md). *)

type t

val request : t -> Message.request -> Message.reply
(** One {e logical} round trip.  Accounting is updated on both
    directions.  On a TCP channel with a resume token, a mid-round
    {!Connection_lost}/{!Frame_corrupt} triggers transparent recovery:
    reconnect under the retry policy, present the token, and either
    consume the replayed reply (the server was ahead — the round is
    never executed twice) or re-send the request.  Protocol drivers
    above this call need no fault handling of their own.
    @raise Protocol_error when the peer signals an error.
    @raise Busy when the peer rejects the session at capacity.
    @raise Connection_lost when the link died and could not be resumed.
    @raise Frame_corrupt on an unrecoverable integrity failure.
    @raise Resume_rejected when the server refused the resume token.
    @raise Quota_exceeded when the server rejects at admission control. *)

val stats : t -> Stats.t
(** Traffic so far: bytes and values per direction, and one round per
    completed {!request} — the input {!Netsim.estimate} projects onto a
    modeled link. *)

val budget : t -> Retry.Budget.t option
(** The wall budget currently governing this channel, if any. *)

val set_budget : t -> Retry.Budget.t option -> unit
(** Install (or clear) the operation budget.  While set, {!request}
    checks it before every round (raising [Retry.Budget.Exceeded] when
    expired), maps its deadline onto the frame-read deadline on TCP
    channels, and threads it through the reconnect/resume retries so no
    recovery path outlives it.  Callers running many sub-operations on
    one channel (e.g. per-candidate sub-deadlines in a catalog query)
    swap sub-budgets in and out here. *)

val server_seconds : t -> float
(** Time spent inside the server handler, on the monotonic clock
    ({!Monoclock.now}) that also times the client's protocol phases.

    {e Local channels} accumulate it live: after every {!request} the
    value includes that request's handler time.

    {e TCP channels} cannot observe the remote handler directly, so the
    value stays [0.] during the session and becomes the server-measured
    total when {!close} receives the final accounting reply
    ([Bye_ack { server_seconds }] from the server).  Read it after
    [close]; per-phase attribution is not available remotely. *)

val close : t -> unit
(** Sends [Bye] (best-effort) and releases resources. *)

(** {1 In-process} *)

val local : ?max_frame:int -> (Message.request -> Message.reply) -> t
(** [?max_frame] (default {!default_max_frame}) caps the encoded
    messages of this channel in bytes (byte parity with a socket run
    includes the cap).
    @raise Invalid_argument on a cap below 16 bytes. *)

(** {1 TCP} *)

val connect :
  ?max_frame:int ->
  ?crc:bool ->
  ?resume:bool ->
  ?retry:Retry.policy ->
  ?rng:Ppst_rng.Secure_rng.t ->
  ?sleep:(float -> unit) ->
  ?budget:Retry.Budget.t ->
  ?faults:Faults.t ->
  host:string ->
  port:int ->
  unit ->
  t
(** [?max_frame] as in {!local}.  [?crc] (default [true]) and
    [?resume] (default [true]) choose the capability bits {e offered} in
    [Hello]; what is actually in force is the server's grant, observed
    on the [Welcome] reply (an old server simply grants nothing and the
    session runs exactly as before this PR).  [?retry] makes the initial
    TCP connect retry per the policy (single attempt when omitted) and
    is also the policy for mid-session resume (which defaults to
    {!Retry.default_policy}); [?rng] (jitter) and [?sleep] are
    injectable for deterministic tests.  [?budget] is the end-to-end
    wall budget for the whole operation: it bounds the initial connect
    retries, every subsequent round and every reconnect+resume recovery
    (see {!set_budget}).  [?faults] installs a deterministic fault
    injector in this channel's frame path — chaos testing; never set in
    production.
    @raise Unix.Unix_error on connection failure.
    @raise Retry.Budget.Exceeded when [?budget] expires during the
    initial connect retries. *)

val offered_flags : t -> int
(** The capability bits this channel offers in [Hello]
    ({!Message.flag_crc32} / {!Message.flag_resume}); [0] for local
    channels. *)

val negotiated_flags : t -> int
(** The server's grant, [0] until the [Welcome] reply has been seen. *)

(** {1 Frame I/O (exposed for {!Server_loop}, the server binary and tests)} *)

val write_frame :
  ?max_frame:int -> ?crc:bool -> ?faults:Faults.t -> Unix.file_descr -> string -> unit
(** [?crc] appends a CRC-32 trailer (and covers it with the length
    header); [?faults] consults the injector before the write.
    @raise Protocol_error when the payload exceeds the cap.
    @raise Connection_lost on a connection-class [Unix] error (or an
    injected drop). *)

val read_frame :
  ?max_frame:int ->
  ?deadline:float ->
  ?progress_timeout_s:float ->
  ?crc:bool ->
  ?faults:Faults.t ->
  Unix.file_descr ->
  string option
(** [None] on clean EOF.  [?max_frame] (default {!default_max_frame})
    caps this read; [?deadline] is an {e absolute} instant on
    {!Monoclock.now}'s timescale after which the read gives up.
    [?progress_timeout_s] is the slow-peer watchdog: once the first
    byte of the frame has arrived, every subsequent chunk must land
    within that many seconds of the previous one (a connection sitting
    quietly {e between} frames is not affected — that is the idle
    policy's job).  With [?crc] the trailer is verified and stripped
    before the payload is returned.
    @raise Protocol_error on oversized lengths.
    @raise Connection_lost on EOF mid-frame or a connection-class error.
    @raise Frame_corrupt on a CRC mismatch.
    @raise Timeout when [deadline] passes mid-read.
    @raise Stalled when byte-level progress stops mid-frame. *)

val setup_sigpipe : unit -> unit
(** Set SIGPIPE to ignore (idempotent), so a write to a peer-reset
    socket surfaces as [EPIPE] instead of killing the process.  Forced
    automatically by {!connect} and {!Server_loop.create}; exposed for
    callers doing raw frame I/O. *)

val retry_on_intr : (unit -> 'a) -> 'a
(** Run a syscall thunk, retrying on [EINTR] (signal mid-syscall) and
    [EAGAIN]/[EWOULDBLOCK] (spurious wakeup on a blocking socket).  All
    frame I/O goes through this; exposed for tests. *)

val default_max_frame : int
(** The frame cap when none is given: 256 MiB. *)

val write_all : Unix.file_descr -> bytes -> int -> unit
(** [write_all fd buf len] writes the first [len] bytes of [buf],
    however many [Unix.write] calls it takes ({!retry_on_intr} for
    each). *)

val close_quiet : Unix.file_descr -> unit
(** [Unix.close], ignoring a [Unix_error]: for a descriptor whose peer
    or owner may already be gone. *)

(** {1 Connection intake}

    The one listen, take, shed and stop step of every server socket:
    {!Server_loop}'s listener or worker control socket, the
    {!Supervisor}'s listener and the {!Metrics_endpoint} sidecar. *)

val listen : ?loopback:bool -> backlog:int -> port:int -> unit -> Unix.file_descr * int
(** A listening TCP socket ([SO_REUSEADDR]) on every interface, or on
    [127.0.0.1] with [~loopback:true], and its bound port ([port = 0]
    picks a free one).  @raise Unix.Unix_error when it cannot bind. *)

(** [accept] on a listener, or a descriptor received
    ({!Fd_passing.recv_fd}) on a dispatcher's control socket. *)
type source = Listener of Unix.file_descr | Control of Unix.file_descr

type taken =
  | Conn of Unix.file_descr * Unix.sockaddr  (** [TCP_NODELAY] set where it applies *)
  | Idle  (** nothing this tick, or the connection was refused or skipped *)
  | Closed  (** the intake was stopped, or the control socket reached EOF *)

type intake

val intake :
  ?disk_faults:Faults.Disk.t -> ?exhausted:Ppst_telemetry.Metrics.counter -> source -> intake
(** A source with its [Fd] fault injector, one reserve descriptor and a
    self-pipe for {!stop} (without descriptors for it, a stop lands at
    the next tick); [?exhausted] counts every [EMFILE]/[ENFILE] met. *)

val take : intake -> refuse:(Unix.file_descr -> unit) -> taken
(** Wait up to 0.2 s for the source (or a {!stop}), then take at most
    one connection, consulting the injector first.  On
    [EMFILE]/[ENFILE] the reserve is closed, the pending connection
    handed to [refuse] (which owns it and must not raise) and the
    reserve re-armed; with no reserve to free, the step waits 50 ms.
    Any other failure skips that connection. *)

val shed : ?retry_after_s:float -> Unix.file_descr -> unit
(** Write a [Busy] frame ([retry_after_s], default 1 s) and close: the
    [refuse] of every framed intake, each around its own count. *)

val stop : intake -> unit
(** Set the intake's stop flag and write one byte to its non-blocking
    self-pipe, so a waiting {!take} returns [Closed] at once.  Never
    blocks; callable from an OCaml signal handler or any thread. *)

val stopped : intake -> bool

val close_intake : intake -> unit
(** Close the self-pipe, the reserve and a [Listener]'s socket; a
    control socket stays open for its owner. *)
