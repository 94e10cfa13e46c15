(* Multi-process supervision: a single-threaded parent that owns the
   listening socket, takes connections through Channel's shared intake,
   shards them across forked worker processes over SCM_RIGHTS fd
   passing, restarts crashed workers under a backoff policy, and
   collects each worker's final drain report at shutdown.

   The parent never serves protocol traffic and never spawns threads —
   fork() from a multi-threaded OCaml process leaves the child with
   dead mutex holders, so keeping the parent single-threaded is what
   makes re-forking a replacement worker safe at any time. *)

module Metrics = Ppst_telemetry.Metrics

(* fd-exhaustion observability: accepts that met EMFILE/ENFILE, the
   Busy answers shed through the intake's reserve, and spawns deferred
   because socketpair had no fd to give. *)
let m_accept_emfile = Metrics.counter "supervisor.accept.emfile"
let m_busy_rejected = Metrics.counter "supervisor.busy_rejected"
let m_spawn_emfile = Metrics.counter "supervisor.spawn.emfile"

type event =
  | Worker_started of { slot : int; pid : int; restarts : int }
  | Worker_exited of {
      slot : int;
      pid : int;
      status : Unix.process_status;
      restarting : bool;
    }

type summary = {
  restarts : int;
  reports : (int * string option) list;
}

(* Per-slot bookkeeping.  [consecutive] counts crashes without an
   intervening healthy stretch (>= healthy_after_s alive) — it drives
   the backoff exponent, so a crash-looping worker backs off
   exponentially while an isolated crash restarts almost at once. *)
type slot = {
  index : int;
  mutable control : Unix.file_descr option;  (* parent end *)
  mutable pid : int;  (* 0 = not running *)
  mutable consecutive : int;
  mutable spawned_at : float;
  mutable restart_at : float option;  (* backoff deadline when dead *)
}

let healthy_after_s = 30.0

(* Restarts over the supervisor's lifetime: a worker that dies once they
   are spent stops the run. *)
let max_restarts = 64

(* Sharding: a reconnecting client's very first frame is [Resume] with
   the token at fixed offsets (4-byte length header, tag 0x0c, u32
   token length, then the 16 token bytes) — peek for it without
   consuming, and route by token hash so the resume lands on the worker
   whose memory still parks the session.  Anything else (fresh Hello,
   probes, garbage) round-robins.  The peek waits at most [peek_wait_s];
   a client that connects and stays silent is dispatched round-robin —
   its worker enforces the real idle policy. *)
let peek_wait_s = 0.05
let resume_peek_bytes = 25
let slot_of_token ~workers token = Crc32.digest token mod workers

let peek_token fd =
  let buf = Bytes.create 64 in
  let deadline = Monoclock.now () +. peek_wait_s in
  let rec wait () =
    let n =
      try Unix.recv fd buf 0 (Bytes.length buf) [ Unix.MSG_PEEK ]
      with
      | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      -> 0
    in
    if n >= resume_peek_bytes then
      if Bytes.get_uint8 buf 4 = 0x0c then Some (Bytes.sub_string buf 9 16)
      else None
    else if n >= 5 && Bytes.get_uint8 buf 4 <> 0x0c then
      (* enough to see a non-Resume tag: no point waiting for more *)
      None
    else begin
      (* 0 < n < 5 can't inspect the tag yet; wait like n = 0 *)
      let remaining = deadline -. Monoclock.now () in
      if remaining <= 0.0 then None
      else begin
        (match
           Channel.retry_on_intr (fun () ->
               Unix.select [ fd ] [] [] (Float.min remaining 0.01))
         with
        | _ -> ());
        wait ()
      end
    end
  in
  (* The parent dispatcher is single-threaded: a client that connects
     and sends nothing (port scanner, LB health probe, hostile peer)
     must never be able to park it in a blocking recv, so the peek runs
     with the fd in non-blocking mode and polls via select up to the
     deadline.  Blocking mode is restored before the fd is handed to a
     worker. *)
  match Unix.set_nonblock fd with
  | exception Unix.Unix_error _ -> None
  | () ->
    Fun.protect
      ~finally:(fun () ->
        try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
      (fun () -> try wait () with Unix.Unix_error _ -> None)

type t = {
  intake : Channel.intake;
  workers : int;
  worker_main : slot:int -> restarted:bool -> control:Unix.file_descr -> unit;
  policy : Retry.policy;
  drain_timeout_s : float;
  rng : Ppst_rng.Secure_rng.t;
  on_event : event -> unit;
  slots : slot array;
  disk_faults : Faults.Disk.t option;
  mutable restarts_total : int;
  mutable next_rr : int;
}

let spawn t slot ~restarted =
  match
    Faults.Disk.check_opt t.disk_faults Faults.Disk.Fd;
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  with
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
    (* fd exhaustion at spawn: defer to the backoff schedule instead of
       crashing the parent — respawn_due retries once fds free up *)
    Metrics.incr m_spawn_emfile;
    slot.consecutive <- slot.consecutive + 1;
    slot.restart_at <-
      Some
        (Monoclock.now ()
        +. Retry.backoff_delay t.policy ~rng:t.rng ~attempt:slot.consecutive
             ~hint:None)
  | parent_fd, child_fd -> (
  match Unix.fork () with
  | 0 ->
    (* child: reset the parent's SIGINT/SIGTERM handlers (which stop the
       parent's intake) to default, drop every parent-side resource,
       then become the worker; worker_main installs its own graceful
       SIGTERM handling if it wants any. *)
    (try Sys.set_signal Sys.sigterm Sys.Signal_default
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint Sys.Signal_default
     with Invalid_argument _ | Sys_error _ -> ());
    Channel.close_quiet parent_fd;
    Channel.close_intake t.intake;
    Array.iter
      (fun s -> match s.control with Some fd -> Channel.close_quiet fd | None -> ())
      t.slots;
    let code =
      try
        t.worker_main ~slot:slot.index ~restarted ~control:child_fd;
        0
      with _ -> 1
    in
    (try flush stdout with Sys_error _ -> ());
    (try flush stderr with Sys_error _ -> ());
    Unix._exit code
  | pid ->
    Channel.close_quiet child_fd;
    slot.control <- Some parent_fd;
    slot.pid <- pid;
    slot.spawned_at <- Monoclock.now ();
    slot.restart_at <- None;
    t.on_event
      (Worker_started
         { slot = slot.index; pid; restarts = t.restarts_total }))

(* Reap dead children and schedule their replacements.  A worker that
   lived a healthy stretch resets its crash streak; the backoff delay
   grows with the streak via the shared transport retry policy. *)
let reap t =
  Array.iter
    (fun slot ->
      if slot.pid <> 0 then
        match
          try Unix.waitpid [ Unix.WNOHANG ] slot.pid
          with Unix.Unix_error (Unix.ECHILD, _, _) ->
            (slot.pid, Unix.WEXITED 0)
        with
        | 0, _ -> ()
        | _, status ->
          let pid = slot.pid in
          slot.pid <- 0;
          (match slot.control with
           | Some fd ->
             Channel.close_quiet fd;
             slot.control <- None
           | None -> ());
          let stopping = Channel.stopped t.intake in
          let budget_left = t.restarts_total < max_restarts in
          let restarting = (not stopping) && budget_left in
          if restarting then begin
            let now = Monoclock.now () in
            slot.consecutive <-
              (if now -. slot.spawned_at >= healthy_after_s then 1
               else slot.consecutive + 1);
            let delay =
              Retry.backoff_delay t.policy ~rng:t.rng
                ~attempt:slot.consecutive ~hint:None
            in
            slot.restart_at <- Some (now +. delay)
          end
          else if not stopping then
            (* restart budget exhausted: the deployment is crash-looping;
               stop accepting rather than flap forever *)
            Channel.stop t.intake;
          t.on_event
            (Worker_exited { slot = slot.index; pid; status; restarting }))
    t.slots

let respawn_due t =
  Array.iter
    (fun slot ->
      match slot.restart_at with
      | Some due when Monoclock.now () >= due && not (Channel.stopped t.intake) ->
        t.restarts_total <- t.restarts_total + 1;
        spawn t slot ~restarted:true
      | _ -> ())
    t.slots

(* Hand [fd] to a worker.  The preferred slot may be dead or mid-restart;
   fall through the ring until a send lands, closing the connection only
   when no worker can take it. *)
let dispatch t fd ~preferred =
  let rec try_slot i remaining =
    if remaining = 0 then Channel.close_quiet fd
    else
      let slot = t.slots.(i mod t.workers) in
      match slot.control with
      | Some control when slot.pid <> 0 -> (
        match Fd_passing.send_fd control ~fd with
        | () -> Channel.close_quiet fd
        | exception (Unix.Unix_error _ | Channel.Connection_lost _) ->
          try_slot (i + 1) (remaining - 1))
      | _ -> try_slot (i + 1) (remaining - 1)
  in
  try_slot preferred t.workers

(* Out of fds, the parent can neither serve nor park the pending
   connection: the intake frees its reserve to take it, and it is shed
   with the standard Busy frame and closed — the client's Busy loop
   backs off and retries, rather than wedging in the listen queue. *)
let refuse fd =
  Metrics.incr m_busy_rejected;
  Channel.shed fd

let accept_tick t =
  reap t;
  respawn_due t;
  match Channel.take t.intake ~refuse with
  | Idle | Closed -> ()
  | Conn (fd, _peer) ->
    let preferred =
      match peek_token fd with
      | Some token -> slot_of_token ~workers:t.workers token
      | None ->
        let rr = t.next_rr in
        t.next_rr <- (rr + 1) mod t.workers;
        rr
    in
    dispatch t fd ~preferred

(* Graceful fan-out: half-close every control socket (the worker's
   dispatch loop reads EOF and drains) and send SIGTERM for workers
   that installed their own handler; then collect one report frame per
   worker within the drain budget and reap, escalating to SIGKILL for
   stragglers. *)
let shutdown_workers t =
  Array.iter
    (fun slot ->
      (match slot.control with
       | Some fd -> (
         try Unix.shutdown fd Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ())
       | None -> ());
      if slot.pid <> 0 then
        try Unix.kill slot.pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.slots;
  let deadline = Monoclock.now () +. t.drain_timeout_s in
  let reports =
    Array.to_list
      (Array.map
         (fun slot ->
           let report =
             match slot.control with
             | None -> None
             | Some fd -> (
               match Channel.read_frame ~deadline fd with
               | blob -> blob
               | exception _ -> None)
           in
           (slot.index, report))
         t.slots)
  in
  Array.iter
    (fun slot ->
      (match slot.control with
       | Some fd ->
         Channel.close_quiet fd;
         slot.control <- None
       | None -> ());
      if slot.pid <> 0 then begin
        (* a worker exits soon after its report: poll from 1 ms,
           doubling up to 20 ms, so an idle stop is not one 20 ms sleep *)
        let rec wait_dead pause =
          match Unix.waitpid [ Unix.WNOHANG ] slot.pid with
          | 0, _ when Monoclock.now () < deadline +. 2.0 ->
            Unix.sleepf pause;
            wait_dead (Float.min 0.02 (2.0 *. pause))
          | 0, _ ->
            (try Unix.kill slot.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] slot.pid)
             with Unix.Unix_error _ -> ())
          | _ -> ()
        in
        (try wait_dead 0.001 with Unix.Unix_error _ -> ());
        slot.pid <- 0
      end)
    t.slots;
  reports

let run ?on_event ?(restart_policy = Retry.default_policy) ?(drain_timeout_s = 30.0)
    ?disk_faults ~listener ~workers ~worker_main () =
  if workers < 1 then invalid_arg "Supervisor: workers must be >= 1";
  Channel.setup_sigpipe ();
  let t =
    {
      intake = Channel.intake ?disk_faults ~exhausted:m_accept_emfile (Listener listener);
      workers;
      worker_main;
      policy = restart_policy;
      drain_timeout_s;
      rng = Ppst_rng.Secure_rng.system ();
      on_event = Option.value on_event ~default:(fun _ -> ());
      disk_faults;
      slots =
        Array.init workers (fun index ->
            {
              index;
              control = None;
              pid = 0;
              consecutive = 0;
              spawned_at = 0.0;
              restart_at = None;
            });
      restarts_total = 0;
      next_rr = 0;
    }
  in
  let on_signal _ = Channel.stop t.intake in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Array.iter (fun slot -> spawn t slot ~restarted:false) t.slots;
  (try
     while not (Channel.stopped t.intake) do
       accept_tick t
     done
   with Unix.Unix_error _ when Channel.stopped t.intake -> ());
  Channel.close_intake t.intake;
  let reports = shutdown_workers t in
  { restarts = t.restarts_total; reports }
