(* Concurrent accept loop: one worker thread per session, capacity
   enforcement with Busy replies, monotonic idle/deadline checks in the
   frame-read path, and a drain-on-shutdown protocol.  Every decision a
   connection's frames call for is made by Session_machine; this module
   is its I/O shell (read a frame, perform the actions) plus what spans
   connections: the session registry, the resume table of parked
   sessions keyed by the token issued in Welcome, the crash-safe spool,
   admission at accept time and the supervised worker mode.

   Locking discipline: [t.mu] guards the active and accepted counts
   (every other process total lives in the Metrics registry);
   [t.rng_mu] guards the token
   generator (drawn from session threads); the stop request is an
   [Atomic] so a signal handler can set it without touching any lock. *)

module Telemetry = Ppst_telemetry.Telemetry
module Metrics = Ppst_telemetry.Metrics
module Rollup = Ppst_telemetry.Rollup
module Exposition = Ppst_telemetry.Exposition

(* Session lifecycle metrics, exposed to operators through Stats_req. *)
let m_active = Metrics.gauge "server.sessions.active"
let m_accepted = Metrics.counter "server.sessions.accepted"
let m_completed = Metrics.counter "server.sessions.completed"
let m_aborted = Metrics.counter "server.sessions.aborted"
let m_busy_rejected = Metrics.counter "server.sessions.busy_rejected"
let m_disconnected = Metrics.counter "server.sessions.disconnected"
let m_parked = Metrics.gauge "server.resume.parked"
let m_shed = Metrics.counter "server.shed"

(* Degraded-mode observability: spool write failures and the sticky
   durability flag they flip (surfaced as Health_reply status 3). *)
let m_spool_write_failures = Metrics.counter "server.spool.write_failures"
let m_degraded = Metrics.gauge "server.degraded"
let m_accept_emfile = Metrics.counter "server.accept.emfile"

(* Process totals over every finished connection: handler wall time and
   traffic (server perspective: received = requests, sent = replies). *)
let m_handler_seconds = Metrics.gauge "server.handler.seconds"

let m_traffic =
  List.map
    (fun (field, _) -> Metrics.counter ("server.traffic." ^ field))
    (Stats.fields (Stats.create ()))

type config = {
  max_sessions : int;
  max_total : int option;
  idle_timeout_s : float option;
  deadline_s : float option;
  retry_after_s : float;
  drain_timeout_s : float;
  enable_crc : bool;
  enable_resume : bool;
  enable_metrics : bool;
  resume_ttl_s : float;
  resume_capacity : int;
  faults : Faults.t option;
  admission : Admission.limits;
  ratelimit : Ratelimit.config option;
  shed_watermark : int option;
  watchdog_timeout_s : float option;
  spool_dir : string option;
  disk_faults : Faults.Disk.t option;
}

let default_config =
  {
    max_sessions = 4;
    max_total = None;
    idle_timeout_s = None;
    deadline_s = None;
    retry_after_s = 1.0;
    drain_timeout_s = 30.0;
    enable_crc = true;
    enable_resume = true;
    enable_metrics = true;
    resume_ttl_s = 300.0;
    resume_capacity = 1024;
    faults = None;
    admission = Admission.unlimited;
    ratelimit = None;
    shed_watermark = None;
    watchdog_timeout_s = Some 30.0;
    spool_dir = None;
    disk_faults = None;
  }

(* The per-session application handler.  [respond] answers protocol
   requests; the optional [snapshot]/[restore] pair is the serializable
   replacement for the parked closure: [snapshot] exports the
   application's session state as an opaque blob (spooled crash-safely
   after every counted round), [restore] re-applies a blob to a freshly
   built handler — how a session parked in worker A resumes in worker B
   after A is SIGKILLed. *)
type app_handler = Session_machine.app_handler = {
  respond : Message.request -> Message.reply;
  snapshot : (unit -> string) option;
  restore : (string -> unit) option;
}

let respond_only respond = { respond; snapshot = None; restore = None }

type outcome = Session_machine.outcome =
  | Completed
  | Idle_timeout
  | Deadline_exceeded
  | Client_error of string
  | Disconnected
  | Quota_rejected of string
  | Slow_peer

type session = {
  id : int;
  peer : string;
  outcome : outcome;
  requests : int;
  handler_seconds : float;
  session_stats : Stats.t;
}

type t = {
  config : config;
  on_session_end : (session -> unit) option;
  handler : id:int -> peer:Unix.sockaddr -> app_handler;
  listener : Unix.file_descr option;
      (* None in worker mode: connections arrive by fd passing from the
         supervisor, not from an owned accept socket *)
  bound_port : int;
  boot_id : string;
      (* 4-byte incarnation prefix of every minted token: lets a
         restarted server distinguish "token from a previous life"
         (terminal; client fails fast) from "unknown token" *)
  shard : (int * int) option;
      (* a supervised worker's (slot, workers): it mints only tokens the
         dispatcher routes back to it *)
  spool : Spool.t option;
  clock : unit -> float;
  mutable last_sweep : float;
  stop : bool Atomic.t;
  mu : Mutex.t;
  resume : Session_machine.session Resume_table.t;
  ratelimit : Ratelimit.t option;
  (* sessions currently inside the protocol handler — the in-flight
     crypto work the shed watermark compares against.  An Atomic so the
     accept thread reads it without taking any session's lock. *)
  inflight : int Atomic.t;
  (* Sticky-until-recovery durability flag: set when a spool/snapshot
     write fails (ENOSPC, EIO, ...), cleared when a later write lands.
     While set, sessions keep running non-durably and health probes
     answer status 3 (degraded). *)
  durability_lost : bool Atomic.t;
  rng : Ppst_rng.Secure_rng.t;
  rng_mu : Mutex.t;
  mutable active : int;
  mutable accepted : int;
  (* Self-pipe that [shutdown] writes to, so a loop blocked in [select]
     wakes at once rather than at its next tick.  [run] and [run_worker]
     open it and close it before they drain; [wake_mu] keeps [shutdown]
     from writing to a closed (or reused) descriptor. *)
  mutable wake : (Unix.file_descr * Unix.file_descr) option;
  wake_mu : Mutex.t;
}

let string_of_sockaddr = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (addr, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port

let make ~config ~on_session_end ~clock ~rng ~boot_id ~shard ~listener
    ~bound_port ~handler =
  if config.max_sessions < 1 then
    invalid_arg "Server_loop.create: max_sessions must be >= 1";
  Channel.setup_sigpipe ();
  let rng = match rng with Some r -> r | None -> Ppst_rng.Secure_rng.system () in
  let boot_id =
    match boot_id with
    | Some b ->
      if String.length b <> 4 then
        invalid_arg "Server_loop.create: boot_id must be exactly 4 bytes";
      b
    | None -> Ppst_rng.Secure_rng.bytes rng 4
  in
  {
    config;
    on_session_end;
    handler;
    listener;
    bound_port;
    boot_id;
    shard;
    spool =
      Option.map
        (fun dir -> Spool.create ?disk_faults:config.disk_faults ~dir ())
        config.spool_dir;
    clock = (match clock with Some f -> f | None -> Monoclock.now);
    last_sweep = 0.0;
    stop = Atomic.make false;
    mu = Mutex.create ();
    resume =
      Resume_table.create ?now:clock ~capacity:config.resume_capacity
        ~ttl_s:config.resume_ttl_s ();
    ratelimit =
      Option.map (fun cfg -> Ratelimit.create ?now:clock cfg) config.ratelimit;
    inflight = Atomic.make 0;
    durability_lost = Atomic.make false;
    rng;
    rng_mu = Mutex.create ();
    active = 0;
    accepted = 0;
    wake = None;
    wake_mu = Mutex.create ();
  }

let create ?(config = default_config) ?on_session_end ?clock ?rng ?boot_id
    ~port ~handler () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_any, port));
     Unix.listen listener (config.max_sessions + 16)
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  match
    make ~config ~on_session_end ~clock ~rng ~boot_id ~shard:None
      ~listener:(Some listener) ~bound_port ~handler
  with
  | t -> t
  | exception e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e

let create_worker ?(config = default_config) ?on_session_end ?clock ?rng
    ?boot_id ~slot ~workers ~handler () =
  if slot < 0 || slot >= workers then
    invalid_arg "Server_loop.create_worker: slot outside [0, workers)";
  make ~config ~on_session_end ~clock ~rng ~boot_id ~shard:(Some (slot, workers))
    ~listener:None ~bound_port:0 ~handler

let port t = t.bound_port
let boot_id t = t.boot_id

let open_wake t =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock w;
  Mutex.lock t.wake_mu;
  t.wake <- Some (r, w);
  Mutex.unlock t.wake_mu;
  r

let close_wake t =
  Mutex.lock t.wake_mu;
  Option.iter (fun (r, w) -> Unix.close r; Unix.close w) t.wake;
  t.wake <- None;
  Mutex.unlock t.wake_mu

let shutdown t =
  Atomic.set t.stop true;
  (* a held lock means a wake-up is being written or the pipe is being
     opened or closed; either way the loop sees [stop] without ours *)
  if Mutex.try_lock t.wake_mu then begin
    (match t.wake with
     | Some (_, w) -> (
       try ignore (Unix.single_write_substring w "!" 0 1) with Unix.Unix_error _ -> ())
     | None -> ());
    Mutex.unlock t.wake_mu
  end

let install_signal_handlers t =
  let on_signal _ = shutdown t in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let active_sessions t = locked t (fun () -> t.active)
let accepted t = locked t (fun () -> t.accepted)
let resume_parked t = Resume_table.size t.resume

let sweep_resume t =
  let swept = Resume_table.sweep t.resume in
  (match t.spool with
   | Some sp -> ignore (Spool.sweep sp ~ttl_s:t.config.resume_ttl_s)
   | None -> ());
  swept

let resume_expired_total t = Resume_table.expired_total t.resume

(* Lazy sweep wired into the accept/inject path: abandoned sessions are
   evicted as the server keeps serving, without a dedicated janitor
   thread.  Rate-limited to roughly once per second of the (injectable)
   clock so a busy accept loop pays one table scan per second, not one
   per connection. *)
let maybe_sweep t =
  let now = t.clock () in
  if now -. t.last_sweep >= 1.0 then begin
    t.last_sweep <- now;
    ignore (sweep_resume t)
  end

(* Capability bits this loop grants when a client offers them. *)
let supported_flags t =
  (if t.config.enable_crc then Message.flag_crc32 else 0)
  lor (if t.config.enable_resume then Message.flag_resume else 0)
  lor if t.config.enable_metrics then Message.flag_metrics else 0

(* 128-bit resume token: the 4-byte boot id, then 12 bytes of pure
   CSPRNG output — never derived from key or protocol state, so it
   reveals nothing beyond "same server incarnation" (SECURITY.md).  The
   prefix is what lets a restarted server answer an old token with the
   terminal server-restarted reject instead of a retryable one; 96
   random bits keep tokens unguessable.  The rng is shared by all
   session threads, hence the lock.  A supervised worker redraws the
   random part until the dispatcher's token hash names its own slot
   (about [workers] draws), so a Resume lands where the session parks. *)
let gen_token t =
  Mutex.lock t.rng_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.rng_mu)
    (fun () ->
      let rec draw () =
        let token = t.boot_id ^ Ppst_rng.Secure_rng.bytes t.rng 12 in
        match t.shard with
        | Some (slot, workers) when Supervisor.slot_of_token ~workers token <> slot ->
          draw ()
        | _ -> token
      in
      draw ())

(* The Metrics_reply / sidecar-endpoint payload: the registry and its
   windowed rollups in OpenMetrics text form. *)
let metrics_text () = Exposition.render ~rollup:(Rollup.global ()) ()

(* The Stats_reply payload: this loop's resume table, then the same
   OpenMetrics page. *)
let stats_text t =
  Printf.sprintf "# resume table\nparked %d\nexpired %d\nevicted %d\n%s"
    (Resume_table.size t.resume)
    (Resume_table.expired_total t.resume)
    (Resume_table.evicted_total t.resume)
    (metrics_text ())

(* A spool/snapshot write failed: sessions continue non-durably (the
   in-memory resume table still works), but cross-worker failover is
   compromised — flip the sticky durability flag so health probes answer
   "degraded" until a later write succeeds. *)
let durability_lost t _e =
  Metrics.incr m_spool_write_failures;
  if not (Atomic.exchange t.durability_lost true) then begin
    Metrics.gauge_set m_degraded 1.0;
    Telemetry.event ~level:Telemetry.Info ~name:"server.durability_lost" ()
  end

(* A later spool write landed: durability is back, clear the flag. *)
let durability_regained t =
  if Atomic.exchange t.durability_lost false then begin
    Metrics.gauge_set m_degraded 0.0;
    Telemetry.event ~level:Telemetry.Info ~name:"server.durability_regained" ()
  end

let is_degraded t = Atomic.get t.durability_lost

(* Readiness, as reported to Health_req probes.  Shedding (2) dominates
   at-capacity (1): a load balancer must stop sending work before the
   session slots are even full.  Both dominate degraded (3, durability
   lost): overload states are transient and actionable right now, while
   degraded only means new sessions lose crash-durability. *)
let health_status t =
  let shedding =
    match t.config.shed_watermark with
    | Some w -> Atomic.get t.inflight >= w
    | None -> false
  in
  if shedding then 2
  else if locked t (fun () -> t.active) >= t.config.max_sessions then 1
  else if Atomic.get t.durability_lost then 3
  else 0

let health_reply t =
  let status = health_status t in
  Message.Health_reply
    {
      status;
      active = locked t (fun () -> t.active);
      capacity = t.config.max_sessions;
      retry_after_s = (if status = 0 then 0.0 else t.config.retry_after_s);
    }

(* --- the I/O shell around Session_machine ----------------------------------- *)

(* A resume token's parked session: this process's memory first, then —
   a miss may mean the session was parked by a worker that is now dead —
   the crash-safe spool (cross-worker failover). *)
let take_parked t token =
  let found =
    match Resume_table.take t.resume token with
    | Some s -> Some (Session_machine.Live s)
    | None ->
      Option.bind t.spool (fun sp ->
          Option.map (fun blob -> Session_machine.Spooled blob) (Spool.take sp ~key:token))
  in
  if Option.is_some found then
    Metrics.gauge_set m_parked (float_of_int (Resume_table.size t.resume));
  found

let machine_env t =
  {
    Session_machine.now = Monoclock.now;
    idle_timeout_s = t.config.idle_timeout_s;
    deadline_s = t.config.deadline_s;
    grants = supported_flags t;
    admission = t.config.admission;
    spooling = Option.is_some t.spool && t.config.enable_resume;
    boot_id = t.boot_id;
    mint_token = (fun () -> gen_token t);
    take_parked = take_parked t;
    in_handler =
      (fun call ->
        (* the in-flight gauge the shed watermark watches: this thread
           is about to spend crypto cycles in the handler *)
        Atomic.incr t.inflight;
        Fun.protect ~finally:(fun () -> Atomic.decr t.inflight) call);
    stats_text = (fun () -> stats_text t);
    metrics_text;
    health = (fun () -> health_reply t);
  }

let event_of_exn : exn -> Session_machine.event = function
  | Channel.Stalled -> Stalled
  | Channel.Connection_lost _ | Channel.Frame_corrupt _ -> Lost
  | Channel.Protocol_error m -> Failed m
  | Unix.Unix_error (e, _, _) -> Failed (Unix.error_message e)
  | e -> Failed (Printexc.to_string e)

(* Read the next frame the way the machine asks: its CRC setting and
   deadline, plus the watchdog and fault injector when serving. *)
let next_event t fd st =
  let timer = Session_machine.deadline st in
  let guarded = Session_machine.guarded st in
  match
    Channel.read_frame ~crc:(Session_machine.crc st)
      ?faults:(if guarded then t.config.faults else None)
      ?progress_timeout_s:(if guarded then t.config.watchdog_timeout_s else None)
      ?deadline:(Option.map fst timer) fd
  with
  | Some frame -> Session_machine.Frame frame
  | None -> Eof
  | exception Channel.Timeout ->
    Timeout (match timer with Some (_, kind) -> kind | None -> Idle)
  | exception e -> event_of_exn e

(* A Busy-refused connection: the client's first request is usually
   already in our receive buffer, and close() with unread bytes pending
   sends RST, which can destroy the Busy frame before the client reads
   it.  So half-close and drain briefly before the close. *)
let drain_input fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  try
    let buf = Bytes.create 4096 in
    let rec go attempts =
      if attempts > 0 then
        match Unix.select [ fd ] [] [] 0.2 with
        | [], _, _ -> ()
        | _ -> if Unix.read fd buf 0 4096 > 0 then go (attempts - 1)
    in
    go 8
  with Unix.Unix_error _ -> ()

let perform t fd st : Session_machine.action -> unit = function
  | Send { frame; crc; values } ->
    Channel.write_frame ~crc ?faults:t.config.faults fd frame;
    let stats = Session_machine.stats st in
    Stats.record_sent stats ~bytes:(String.length frame) ~values;
    Stats.record_round stats
  | Notify { frame; crc } -> (
    try Channel.write_frame ~crc fd frame with _ -> ())
  | Save_snapshot { token; blob } -> (
    match t.spool with
    | Some sp -> (
      match Spool.put sp ~key:token blob with
      | () -> durability_regained t
      | exception e -> durability_lost t e
        (* a full disk must not kill the live session: the spool is a
           recovery improvement, in-memory parking still works.  The
           failure demotes the server to the typed degraded state
           (Health_reply status 3) until a later write lands. *))
    | None -> ())
  | Drop_snapshot token -> Option.iter (fun sp -> Spool.delete sp ~key:token) t.spool
  | Refuse { frame; shed } ->
    Metrics.incr (if shed then m_shed else m_busy_rejected);
    (try Channel.write_frame fd frame with _ -> ());
    drain_input fd
  | Close _ -> ()

(* Feed events to the machine and perform its actions in order until it
   closes the connection; a failed action is the machine's next event. *)
let rec drive t fd st = advance t fd (Session_machine.step st (next_event t fd st))

and advance t fd (st, actions) =
  match actions with
  | [] -> drive t fd st
  | Session_machine.Close { outcome; park } :: _ -> (st, outcome, park)
  | action :: rest -> (
    match perform t fd st action with
    | () -> advance t fd (st, rest)
    | exception e -> advance t fd (Session_machine.step st (event_of_exn e)))

(* One connection, run in its own thread: a fresh session, or the
   continuation of a parked one when the first frame is Resume. *)
let serve_session t ~id ~peer fd =
  let span =
    Telemetry.start ~name:"server.session" ~attrs:[ ("id", Telemetry.Int id) ] ()
  in
  let st, outcome, park =
    drive t fd
      (Session_machine.serving (machine_env t) ~app:(fun () ->
           (* the factory runs in the session thread: key-sharing setup
              cost is paid by the session, never by the accept loop *)
           t.handler ~id ~peer))
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (match Session_machine.attached st with
   | Some s when park ->
     (* the spool already holds this session's last counted round; keep
        it — it is what survives if THIS worker dies while parked *)
     Resume_table.put t.resume (Session_machine.token s) s;
     Metrics.gauge_set m_parked (float_of_int (Resume_table.size t.resume))
   | _ -> ());
  let requests = Session_machine.requests st in
  let handler_seconds = Session_machine.handler_seconds st in
  let stats = Session_machine.stats st in
  let record =
    {
      id;
      peer = string_of_sockaddr peer;
      outcome;
      requests;
      handler_seconds;
      session_stats = stats;
    }
  in
  (* before the slot is released, so a drained loop's totals are whole *)
  Metrics.gauge_add m_handler_seconds handler_seconds;
  List.iter2 (fun c (_, v) -> Metrics.incr ~by:v c) m_traffic (Stats.fields stats);
  locked t (fun () ->
      t.active <- t.active - 1;
      Metrics.gauge_set m_active (float_of_int t.active));
  Metrics.incr
    (match outcome with
     | Completed -> m_completed
     | Disconnected -> m_disconnected
     | _ -> m_aborted);
  Telemetry.finish
    ~attrs:
      [
        ( "outcome",
          Telemetry.Int
            (match outcome with
             | Completed -> 0
             | Idle_timeout -> 1
             | Deadline_exceeded -> 2
             | Client_error _ -> 3
             | Disconnected -> 4
             | Quota_rejected _ -> 5
             | Slow_peer -> 6) );
        ("requests", Telemetry.Int requests);
      ]
    span;
  match t.on_session_end with Some f -> f record | None -> ()

(* At-capacity / shedding / throttled handling, run off the accept
   thread: the same machine, started refusing.  [shed] marks a
   load-shed or rate-limit rejection rather than a capacity one. *)
let refuse_session t ~shed ~retry_after_s fd =
  ignore (drive t fd (Session_machine.refusing (machine_env t) ~shed ~retry_after_s));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Admission decision + thread spawn for one connected socket, shared by
   the owned-listener accept path and the worker fd-injection path. *)
let inject t fd peer =
    (* Cheapest checks first, all on public information.  The per-peer
       rate limit is keyed by address (no port: one hostile process
       cannot dodge its bucket by rotating source ports), and the shed
       watermark compares in-flight crypto work against the configured
       ceiling — both decided before a session slot is even considered. *)
    let peer_key =
      match peer with
      | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
      | Unix.ADDR_UNIX p -> p
    in
    let throttled =
      match t.ratelimit with
      | None -> None
      | Some rl -> (
        match Ratelimit.admit rl peer_key with
        | `Admit -> None
        | `Throttle retry_after_s -> Some retry_after_s)
    in
    let shedding =
      match t.config.shed_watermark with
      | Some w -> Atomic.get t.inflight >= w
      | None -> false
    in
    let admitted =
      if throttled <> None || shedding then None
      else
        locked t (fun () ->
            if t.active >= t.config.max_sessions then None
            else begin
              t.active <- t.active + 1;
              t.accepted <- t.accepted + 1;
              Metrics.incr m_accepted;
              Metrics.gauge_set m_active (float_of_int t.active);
              Some t.accepted
            end)
    in
    (match admitted with
     | None ->
       (* the refusing machine answers probes or Busy, off the accept
          thread, so a hostile client cannot slow admission down *)
       let shed = throttled <> None || shedding in
       let retry_after_s = Option.value throttled ~default:t.config.retry_after_s in
       ignore (Thread.create (fun () -> refuse_session t ~shed ~retry_after_s fd) ())
     | Some id ->
       ignore
         (Thread.create
            (fun () ->
              try serve_session t ~id ~peer fd
              with _ ->
                (* serve_session handles its own errors; this is the
                   last-resort belt against bugs in the hooks *)
                ())
            ()))

let accept_one t listener wake =
  match
    Channel.retry_on_intr (fun () -> Unix.select [ listener; wake ] [] [] 0.2)
  with
  | readable, _, _ when not (List.mem listener readable) -> maybe_sweep t
  | _ -> (
    match
      (match t.config.disk_faults with
       | Some f -> Faults.Disk.check f Faults.Disk.Fd
       | None -> ());
      Unix.accept listener
    with
    | fd, peer ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      maybe_sweep t;
      inject t fd peer
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      (* fd exhaustion: nothing can be accepted right now.  Count it and
         back off a beat so the still-readable listener does not spin
         this loop at 100% CPU; the pending connection is served once
         fds free up. *)
      Metrics.incr m_accept_emfile;
      Thread.delay 0.05;
      maybe_sweep t)

let drain t =
  let give_up = Monoclock.now () +. t.config.drain_timeout_s in
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      while t.active > 0 && Monoclock.now () < give_up do
        (* Condition.wait has no timeout; poll on a short tick so a
           stuck session cannot wedge the drain past its budget. *)
        Mutex.unlock t.mu;
        Thread.delay 0.05;
        Mutex.lock t.mu
      done)

let run t =
  let listener =
    match t.listener with
    | Some l -> l
    | None ->
      invalid_arg
        "Server_loop.run: worker-mode loop has no listener (use run_worker)"
  in
  let total_reached () =
    match t.config.max_total with
    | None -> false
    | Some n -> locked t (fun () -> t.accepted >= n)
  in
  Fun.protect
    ~finally:(fun () ->
      close_wake t;
      try Unix.close listener with Unix.Unix_error _ -> ())
    (fun () ->
      let wake = open_wake t in
      while (not (Atomic.get t.stop)) && not (total_reached ()) do
        accept_one t listener wake
      done);
  (* stopped accepting (listener closed above: queued connects are
     refused, not served) — now drain what is already in flight *)
  drain t

(* --- supervised worker mode ------------------------------------------------ *)

(* The worker's final drain frame to the parent dispatcher: its registry's
   counters and gauges, so the parent's summary covers every worker that
   drained. *)
let encode_report () =
  let w = Wire.writer () in
  let scalars = Metrics.scalars () in
  Wire.put_u32 w (List.length scalars);
  List.iter
    (fun (name, v) ->
      Wire.put_bytes w name;
      Wire.put_f64 w v)
    scalars;
  Wire.contents w

let decode_report blob =
  let r = Wire.reader blob in
  let scalars =
    List.init (Wire.get_u32 r) (fun _ ->
        let name = Wire.get_bytes r in
        (name, Wire.get_f64 r))
  in
  Wire.expect_end r;
  scalars

(* Worker service loop: connections arrive as passed fds on [control]
   instead of from an owned listener.  EOF on [control] (the parent
   died or closed the channel) and SIGTERM-via-[shutdown] both end the
   loop; either way the worker drains in-flight sessions and sends one
   final report frame back up the control socket. *)
let run_worker t ~control =
  (match t.listener with
   | Some _ ->
     invalid_arg "Server_loop.run_worker: loop owns a listener (use run)"
   | None -> ());
  let wake = open_wake t in
  let rec serve () =
    if not (Atomic.get t.stop) then begin
      match
        Channel.retry_on_intr (fun () -> Unix.select [ control; wake ] [] [] 0.2)
      with
      | readable, _, _ when not (List.mem control readable) ->
        maybe_sweep t;
        serve ()
      | _ -> (
        match Fd_passing.recv_fd control with
        | None -> () (* parent closed the dispatch channel *)
        | Some fd ->
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          let peer =
            try Unix.getpeername fd
            with Unix.Unix_error _ -> Unix.ADDR_UNIX "supervisor"
          in
          maybe_sweep t;
          inject t fd peer;
          serve ())
    end
  in
  Fun.protect
    ~finally:(fun () -> close_wake t)
    (fun () -> try serve () with Unix.Unix_error _ -> ());
  drain t;
  try Channel.write_frame control (encode_report ()) with _ -> ()
