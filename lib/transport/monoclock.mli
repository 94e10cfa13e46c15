(** Monotonic time for timeout and deadline arithmetic.

    All transport-level deadlines ({!Channel.read_frame},
    {!Server_loop}) are absolute instants on this clock, never on the
    wall clock: a wall-clock step (NTP sync, manual reset) must not
    expire or extend a session.  It is also the clock of every measured
    duration, so a deadline and a timing agree. *)

val now : unit -> float
(** {!Ppst_telemetry.Telemetry.now}: seconds since an arbitrary fixed
    origin, monotonic.  Only differences between two [now] readings are
    meaningful. *)
