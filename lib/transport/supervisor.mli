(** Multi-process serving: a single-threaded parent dispatcher owning
    the listening socket, sharding accepted connections across [N]
    forked worker processes by passing the connected file descriptor
    over a per-worker Unix socketpair ({!Fd_passing}).

    Routing: the parent peeks (without consuming) at the connection's
    first bytes for up to 50 ms.  A [Resume] frame — recognizable from
    its fixed layout ([0x0c] tag, then the 16-byte token) — routes by
    token hash ({!slot_of_token}).  Every worker mints only tokens that
    hash to its own slot ({!Server_loop.create_worker} takes [~slot]
    and [~workers]), so a resuming client lands on the worker whose
    in-memory resume table parks the session.  With a shared session
    spool ({!Server_loop.config.spool_dir}) any worker can serve it,
    which is what happens when that worker has died since; the hash
    keeps the common case on the fast in-memory path.  Everything else
    round-robins.  The parent reads
    nothing beyond the peek and learns nothing the server would not
    learn anyway (SECURITY.md).

    Fault tolerance: the parent [waitpid]s its children each accept
    tick.  A dead worker is re-forked after a backoff drawn from the
    shared transport {!Retry.policy}, with the exponent driven by the
    worker's {e consecutive} crash count (a worker that stayed up 30 s
    resets the streak) — an isolated crash restarts almost instantly, a
    crash loop backs off exponentially, and a global budget of 64
    restarts stops the deployment rather than flapping forever.

    Shutdown ([SIGINT]/[SIGTERM] or an exhausted restart budget):
    half-close every control socket — the worker's loop reads EOF,
    drains in-flight sessions and writes one final report frame back up
    the same socket ({!Server_loop.run}) — and send
    SIGTERM for workers with their own handler; collect the reports
    within the drain budget; SIGKILL stragglers.

    The parent must stay single-threaded (it forks at arbitrary times);
    that is why supervision lives in its own pre-threads module instead
    of inside {!Server_loop}. *)

type event =
  | Worker_started of { slot : int; pid : int; restarts : int }
      (** [restarts] is the supervisor-lifetime restart count {e before}
          this start: [0] for each initial worker. *)
  | Worker_exited of {
      slot : int;
      pid : int;
      status : Unix.process_status;
      restarting : bool;  (** a replacement has been scheduled *)
    }

type summary = {
  restarts : int;  (** workers re-forked over the supervisor's lifetime *)
  reports : (int * string option) list;
      (** per-slot final drain frame, in slot order; [None] when the
          worker died without reporting (crashed, or missed the drain
          deadline).  Decode with {!Server_loop.decode_report}. *)
}

val peek_token : Unix.file_descr -> string option
(** Peek ([MSG_PEEK], consuming nothing) at a freshly accepted
    connection's first frame for up to 50 ms; returns the 16-byte
    resume token when the frame is a [Resume], [None] otherwise
    (round-robin dispatch).  The fd is put in non-blocking mode for the
    duration of the peek — a peer that connects and stays silent can
    never park the single-threaded dispatcher in a blocking [recv] —
    and restored to blocking before return.  A first segment too short
    to carry the tag byte is waited out, not misread.  Exposed for
    tests; {!run} calls it on every accepted connection. *)

val slot_of_token : workers:int -> string -> int
(** The worker slot a resume token routes to:
    [Crc32.digest token mod workers]. *)

val run :
  ?on_event:(event -> unit) ->
  ?restart_policy:Retry.policy ->
  ?drain_timeout_s:float ->
  ?disk_faults:Faults.Disk.t ->
  listener:Unix.file_descr ->
  workers:int ->
  worker_main:(slot:int -> restarted:bool -> control:Unix.file_descr -> unit) ->
  unit ->
  summary
(** Fork [workers] children and dispatch until [SIGINT] or [SIGTERM]
    (whose handlers, installed here, {!Channel.stop} the parent's
    intake, so an idle parent stops at once; each forked worker starts
    with both at their default), then shut down gracefully and return
    the merged summary.  [listener] comes from {!Channel.listen} (backlog
    64), bound {e before} forking so every worker generation serves the
    same address.  [worker_main] runs {e in the child} with the child
    end of its control socketpair; it must serve fds received on
    [control] until EOF and exit — {!Server_loop.run} on a
    {!Server_loop.create_worker} loop is the intended body.  [restarted] tells
    a replacement worker it follows a crash (a chaos-injected worker
    uses it to drop its one-shot crash fault instead of dying again).
    It makes at most 64 restarts over its lifetime; a worker that dies
    once they are spent stops the run.  [?drain_timeout_s] (default 30)
    bounds shutdown collection.  Call from a process with {e no}
    threads beyond the main one: fork from a threaded parent leaves
    children with dead lock holders.

    fd exhaustion never kills the parent: connections are taken by the
    shared step {!Channel.take}, whose [EMFILE]/[ENFILE] path frees the
    intake's reserve descriptor to take the pending connection, which
    the parent answers [Message.Busy] and closes ({!Channel.shed};
    counted in [supervisor.accept.emfile] and
    [supervisor.busy_rejected]); the same errno from the spawn-time
    [socketpair] defers the fork to the restart backoff schedule.  A
    forked worker closes the intake (listener, reserve, self-pipe).
    [?disk_faults] injects those errnos deterministically for chaos
    tests ({!Faults.Disk}).
    @raise Invalid_argument on [workers < 1]. *)
