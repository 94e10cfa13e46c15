(** Persistent concurrent session server: the production accept loop.

    [Server_loop] keeps accepting and hands every connection to its own
    worker thread, so one slow session cannot head-of-line-block every
    other client.  What a connection's frames call for is decided by
    {!Session_machine}; this module reads the frames, performs the
    machine's actions, and adds the capacity, timeout and shutdown
    machinery a long-running deployment needs:

    - {e capacity}: at most [config.max_sessions] sessions run at once;
      an over-capacity connection is answered with a [Message.Busy]
      frame (tag [0x8E], retry-after hint) and closed instead of being
      left hanging in the backlog;
    - {e idle timeout / deadline}: enforced in the frame-read path with
      monotonic-clock checks ({!Monoclock}), so neither a silent client
      nor a wall-clock step can pin a worker forever;
    - {e error isolation}: a malformed frame, forged length or handler
      exception aborts only its own session — the loop and every other
      session keep running (the single-session guarantee, kept under
      concurrency);
    - {e graceful shutdown}: {!shutdown} (typically from a
      SIGINT/SIGTERM handler, see {!install_signal_handlers}) stops
      accepting, drains in-flight sessions up to
      [config.drain_timeout_s], then {!run} returns so the caller can
      print the process totals.

    Process totals live in the {!Ppst_telemetry.Metrics} registry, not
    in the loop: sessions accepted, completed, aborted and refused
    ([server.sessions.*], [server.shed]), spool write failures, and —
    added as each connection ends — its handler wall time
    ([server.handler.seconds]) and traffic ([server.traffic.*], one
    counter per {!Stats.fields} name).

    Concurrency model: one [Thread.t] per session (I/O overlaps; OCaml
    compute interleaves under the runtime lock).  The per-session
    handler closure returned by the factory is only ever called from
    that session's thread, but {e different} sessions run concurrently —
    the factory must hand each session its own mutable state (its own
    [Server.t] in the core layer). *)

type config = {
  max_sessions : int;  (** concurrent-session capacity, [>= 1] *)
  max_total : int option;
      (** stop accepting after this many sessions have been {e accepted}
          (Busy rejections do not count); [None] = serve until
          {!shutdown} *)
  idle_timeout_s : float option;
      (** longest silence between two client frames before the session
          is closed *)
  deadline_s : float option;
      (** longest total session duration, measured from accept *)
  retry_after_s : float;  (** backoff hint carried in [Busy] replies *)
  drain_timeout_s : float;
      (** how long {!run} waits for in-flight sessions after
          {!shutdown} before giving up on them *)
  enable_crc : bool;
      (** grant {!Message.flag_crc32} when offered: CRC-32 trailers on
          every frame after the Welcome *)
  enable_resume : bool;
      (** grant {!Message.flag_resume} when offered: issue a resume
          token and park interrupted sessions in the resume table *)
  enable_metrics : bool;
      (** grant {!Message.flag_metrics} when offered and answer
          [Metrics_req] (in-session and on probe connections) with the
          OpenMetrics page; when [false] the request draws a named
          capability-violation [Error_reply] *)
  resume_ttl_s : float;
      (** parked state lives this long before TTL eviction *)
  resume_capacity : int;
      (** most sessions parked at once; beyond it the entry closest to
          expiry is evicted *)
  faults : Faults.t option;
      (** deterministic fault injector for the server's frame path
          ([--chaos-profile] on [ppst_server]); [None] in production *)
  admission : Admission.limits;
      (** per-session resource budgets (DP cells, series length,
          dimension, frame bytes/count), enforced before any Paillier
          work; violations answer {!Message.reply.Quota_exceeded} and
          end the session ({!outcome.Quota_rejected}) *)
  ratelimit : Ratelimit.config option;
      (** per-peer token-bucket admission: a peer over its budget is
          answered [Busy] with the exact bucket-recovery delay as the
          retry-after hint; [None] = unlimited *)
  shed_watermark : int option;
      (** global load shed: refuse {e new} sessions (Busy + hint) while
          at least this many sessions are inside the crypto handler —
          in-flight work finishes instead of thrashing; [None] = off *)
  watchdog_timeout_s : float option;
      (** slow-peer watchdog: a frame in progress whose byte stream
          stalls longer than this is cut ({!outcome.Slow_peer}) — the
          slowloris defense.  Quiet time {e between} frames is governed
          by [idle_timeout_s], not this. *)
  spool_dir : string option;
      (** crash-safe session spool.  When set, every counted round of a
          resumable session also writes a {!Snapshot} of the session to
          this directory (atomic temp-file + rename + fsync), and a
          [Resume] whose token misses the in-memory table falls back to
          the spool — so a session parked in one worker process survives
          that worker being [SIGKILL]ed and resumes in another.  [None]
          (the default) keeps the pre-existing memory-only behavior. *)
  disk_faults : Faults.Disk.t option;
      (** environmental fault injector (ENOSPC / EIO / EMFILE) consulted
          by the spool writes and the accept path — degraded-mode chaos
          testing; never set in production *)
}

val default_config : config
(** [max_sessions = 4], no total limit, no idle timeout, no deadline,
    [retry_after_s = 1.0], default frame cap, [drain_timeout_s = 30.0],
    CRC and resume enabled ([resume_ttl_s = 300.], capacity 1024), no
    fault injection, no admission budgets, no rate limit, no shed
    watermark, 30 s slow-peer watchdog, no spool. *)

(** What the per-session factory hands back: the request handler plus
    optional crash-safety hooks.  [snapshot] (called after every counted
    round, under the session thread) must return an opaque, serializable
    encoding of the application state sufficient to rebuild the handler;
    [restore] is called at most once, before the first request of a
    session resumed {e from the spool}, with the last spooled blob.
    Handlers without the hooks still park/resume in memory exactly as
    before — they just cannot survive a process crash. *)
type app_handler = {
  respond : Message.request -> Message.reply;
  snapshot : (unit -> string) option;
  restore : (string -> unit) option;
}

val respond_only : (Message.request -> Message.reply) -> app_handler
(** Wrap a plain request handler (no crash-safety hooks). *)

(** Why a session ended, for observability and tests. *)
type outcome =
  | Completed  (** [Bye] handshake or clean EOF *)
  | Idle_timeout  (** closed by [idle_timeout_s] *)
  | Deadline_exceeded  (** closed by [deadline_s] *)
  | Client_error of string
      (** protocol violation (forged length, peer error, ...) — only
          this session died *)
  | Disconnected
      (** the connection died mid-session (reset, EOF without [Bye],
          corrupt frame).  When the session held a resume token its
          state is parked in the resume table; a later connection
          presenting the token continues it as a new [session] record. *)
  | Quota_rejected of string
      (** admission control refused a request against the named budget
          ([Message.Quota_exceeded] was sent); the session is over *)
  | Slow_peer
      (** the slow-peer watchdog cut a connection that stopped making
          byte progress mid-frame ([watchdog_timeout_s]).  Never
          parked for resume. *)

type session = {
  id : int;  (** accept order, starting at 1 *)
  peer : string;  (** printable peer address *)
  outcome : outcome;
  requests : int;
      (** requests answered on {e this connection} (the final [Bye]
          included) — a resumed session's earlier connections already
          reported theirs, so totals never double-count *)
  handler_seconds : float;
      (** wall-clock inside the handler on this connection (same
          delta discipline as [requests]) *)
  session_stats : Stats.t;
      (** this session's traffic, server perspective: received =
          requests, sent = replies *)
}

type t

val create :
  ?config:config ->
  ?on_session_end:(session -> unit) ->
  ?clock:(unit -> float) ->
  ?rng:Ppst_rng.Secure_rng.t ->
  ?boot_id:string ->
  port:int ->
  handler:(id:int -> peer:Unix.sockaddr -> app_handler) ->
  unit ->
  t
(** Bind and listen immediately (so [port = 0] picks an ephemeral port
    readable via {!port} before {!run} is even called).  [handler] is
    the per-session factory: invoked {e once} per {e logical} session —
    lazily, in the session's own thread, at its first protocol request;
    a connection resuming a parked session reuses the original closure
    with its state intact.  [Bye] is answered by the loop itself (with
    the measured handler total in [Bye_ack]), as are [Stats_req],
    [Resume] and the capability negotiation on [Hello]/[Welcome]: the
    protocol handler never sees transport concerns.  [on_session_end]
    runs in the session's thread right after its socket closes — the
    hook for logging and for per-session accounting.  [?clock] overrides the resume table's clock (tests
    prove TTL eviction by advancing a fake clock); [?rng] the token
    generator (system-seeded by default).  [?boot_id] is the 4-byte
    incarnation prefix carried by every issued resume token: workers of
    one supervised deployment share it (so tokens shard and fail over
    across them), while a fresh default (random) boot id makes a
    restarted server reject tokens from its previous life with a
    {!Channel.server_restarted_reason}-prefixed reason.
    @raise Invalid_argument on [max_sessions < 1] or a [boot_id] whose
    length is not exactly 4
    @raise Unix.Unix_error when the port cannot be bound. *)

val create_worker :
  ?config:config ->
  ?on_session_end:(session -> unit) ->
  ?clock:(unit -> float) ->
  ?rng:Ppst_rng.Secure_rng.t ->
  ?boot_id:string ->
  slot:int ->
  workers:int ->
  handler:(id:int -> peer:Unix.sockaddr -> app_handler) ->
  unit ->
  t
(** Like {!create} but without binding a listener: connections arrive as
    file descriptors passed over a {!Supervisor} control socket and are
    served by {!run_worker}.  [slot] is this worker's index among
    [workers]: every resume token it mints satisfies
    [Supervisor.slot_of_token ~workers token = slot], so the dispatcher
    routes a Resume back to it.  {!port} returns [0]; {!run} raises.
    @raise Invalid_argument unless [0 <= slot < workers]. *)

val port : t -> int
(** The actually bound TCP port ([0] for a {!create_worker} loop). *)

val boot_id : t -> string
(** The 4-byte incarnation prefix of every resume token this loop
    issues. *)

val run : t -> unit
(** Accept-and-serve until {!shutdown} is requested or [max_total]
    sessions have been accepted; then stop accepting, drain in-flight
    sessions (bounded by [drain_timeout_s]) and return.  Call from the
    thread that owns the server (it blocks). *)

val shutdown : t -> unit
(** Request a graceful stop: sets a flag and writes one byte to the
    loop's non-blocking self-pipe, which {!run} and {!run_worker} watch
    beside their listener or dispatch channel.  A loop waiting for a
    connection therefore stops accepting at once, not at its next
    0.2 s tick, and then drains.  Never blocks; callable from an OCaml
    signal handler (which runs at a safe point) or any thread. *)

val install_signal_handlers : t -> unit
(** Route SIGINT and SIGTERM to {!shutdown} for this loop. *)

val active_sessions : t -> int
(** Sessions currently in flight. *)

val accepted : t -> int
(** Sessions accepted so far (in-flight included). *)

val is_degraded : t -> bool
(** Whether the server is in the durability-lost degraded state: a
    spool/snapshot write failed (full disk, I/O error) and no later
    write has succeeded yet.  Sessions continue non-durably; health
    probes answer status [3].  Clears itself when a spool write lands
    again. *)

val resume_parked : t -> int
(** Sessions currently parked in the resume table. *)

val sweep_resume : t -> int
(** Evict every TTL-expired parked session now (spool entries included
    when a spool is configured); returns how many parked sessions went.
    The accept loop also runs this lazily (at most once per second, on
    its accept tick), so thousands of abandoned sessions cannot
    accumulate unboundedly between explicit sweeps. *)

val resume_expired_total : t -> int
(** Parked sessions evicted by TTL expiry over this loop's lifetime
    (the resume table's [expired_total] counter). *)

(** {1 Supervised worker mode}

    Under {!Supervisor}, each worker process runs {!run_worker} on a
    {!create_worker} loop: accepted connections arrive as passed fds on
    the control socket instead of from an owned listener.  When the
    dispatch channel closes (supervisor shutdown or death) the worker
    drains in-flight sessions and writes one final report frame back up
    the control socket: its registry's counters and gauges
    ({!Ppst_telemetry.Metrics.scalars}), so the parent's summary covers
    every worker that drained.  The frame is a u32 count, then per
    metric its name (length-prefixed bytes) and value (f64). *)

val decode_report : string -> (string * float) list
(** Decode a worker's final drain frame: [(name, value)] per counter
    and gauge, sorted by name.
    @raise Wire.Malformed on a corrupt blob. *)

val run_worker : t -> control:Unix.file_descr -> unit
(** Serve connections received via {!Fd_passing.recv_fd} on [control]
    until the channel reaches EOF or {!shutdown} is requested, then
    drain in-flight sessions ([drain_timeout_s]) and send the final
    report frame (best-effort).
    @raise Invalid_argument on a loop that owns a listener (use {!run}). *)
