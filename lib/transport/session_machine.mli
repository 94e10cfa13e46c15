(** One server connection as a state machine: everything the server
    decides about a connection is a function of the connection's state
    and its next event.

    The machine owns every per-frame decision — capability grant and
    resume token on [Hello], [Resume] with replay or reject, admission
    charging, the loop-answered [Stats_req] / [Health_req] /
    [Metrics_req] / [Bye], malformed frames and unnegotiated CRC
    trailers — and answers each event with the {!action}s an I/O shell
    ({!Server_loop}) performs in order.  It touches no socket, thread,
    clock or file: those come in through {!env}, so a test can drive it
    frame by frame.

    A connection starts {!serving} (a fresh session, or a parked one
    continued by [Resume]) or {!refusing} (over capacity or shedding
    load: probes answered, [Bye] after a probe acknowledged, anything
    else or silence answered [Busy]). *)

type app_handler = {
  respond : Message.request -> Message.reply;
  snapshot : (unit -> string) option;
  restore : (string -> unit) option;
}
(** See {!Server_loop.app_handler}. *)

(** See {!Server_loop.outcome}. *)
type outcome =
  | Completed
  | Idle_timeout
  | Deadline_exceeded
  | Client_error of string
  | Disconnected
  | Quota_rejected of string
  | Slow_peer

type session
(** A logical session — handler, round counter and cached last reply,
    grant, token, deadline, admission ledger.  It outlives a connection
    when parked. *)

val token : session -> string

(** Where a presented resume token was found: parked in memory, or a
    {!Snapshot} blob from the crash-safe spool. *)
type parked = Live of session | Spooled of string

type env = {
  now : unit -> float;  (** monotonic seconds: deadlines, handler time *)
  idle_timeout_s : float option;
  deadline_s : float option;
  grants : int;  (** capability bits granted when offered *)
  admission : Admission.limits;
  spooling : bool;  (** snapshot every counted round of a resumable session *)
  boot_id : string;  (** 4-byte prefix of this incarnation's tokens *)
  mint_token : unit -> string;
  take_parked : string -> parked option;
  in_handler : (unit -> Message.reply) -> Message.reply;
      (** wraps every application-handler call *)
  stats_text : unit -> string;
  metrics_text : unit -> string;
  health : unit -> Message.reply;
}

(** The deadline a read was armed with. *)
type timer =
  | Idle  (** [idle_timeout_s] after the previous frame *)
  | Deadline  (** the session's [deadline_s] *)
  | Probe  (** a refusing connection's wait *)

type event =
  | Frame of string  (** one frame's payload, CRC trailer checked *)
  | Eof  (** clean end of stream between frames *)
  | Timeout of timer  (** the armed deadline passed *)
  | Stalled  (** the slow-peer watchdog cut a frame in progress *)
  | Lost  (** connection lost, or a frame failed its CRC *)
  | Failed of string  (** any other read or write failure *)

type action =
  | Send of { frame : string; crc : bool; values : int }
      (** write a reply; a failure is the next event.  [values] is its
          {!Message.values_in}, for the shell's traffic accounting *)
  | Notify of { frame : string; crc : bool }
      (** best-effort write, failures ignored, not accounted *)
  | Save_snapshot of { token : string; blob : string }
      (** persist the snapshot; precedes the [Send] of its round *)
  | Drop_snapshot of string  (** delete the snapshot spooled under a token *)
  | Refuse of { frame : string; shed : bool }
      (** count a rejection, write this [Busy] best-effort, half-close
          and drain the input *)
  | Close of { outcome : outcome; park : bool }
      (** always last; with [park] the attached session goes to the
          resume table under its token *)

type t

val serving : env -> app:(unit -> app_handler) -> t
(** [app] builds the handler of a fresh session at its first request.
    The session deadline starts now. *)

val refusing : env -> shed:bool -> retry_after_s:float -> t
(** Refused for capacity ([shed = false]) or by the rate limiter / shed
    watermark: waits 0.5 s for a first frame and 2 s for each later
    one, and answers at most 65 probes. *)

val step : t -> event -> t * action list
(** Never raises: handler exceptions become [Error_reply] frames. *)

val crc : t -> bool
(** Whether the next frame carries a CRC-32 trailer. *)

val deadline : t -> (float * timer) option
(** When (on [env.now]'s scale) the next read gives up, and why. *)

val guarded : t -> bool
(** Whether I/O runs under the slow-peer watchdog and the fault
    injector: when serving, not when refusing. *)

val attached : t -> session option

val stats : t -> Stats.t
(** Traffic on this connection: {!step} counts received frames, the
    shell each successful {!Send}. *)

val requests : t -> int
(** Requests answered on this connection. *)

val handler_seconds : t -> float
(** Handler time spent on this connection. *)
