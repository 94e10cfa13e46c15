(** Sidecar HTTP listener serving the OpenMetrics page to scrapers.

    A minimal HTTP/1.0 responder on its own loopback port ([ppst_server
    --metrics-port]): every request, regardless of path, is answered with
    the rendered metrics page.  It runs in one background thread,
    entirely outside the framed-protocol listener — scrapes never consume
    session slots and are served even when the protocol loop is at
    capacity or shedding.  It takes scrapes with {!Channel.take}; one
    that arrives while the process is out of descriptors is closed.

    The page carries the same aggregate-only surface as
    [Stats_req]/[Metrics_req]: static metric names and numbers
    ({!Ppst_telemetry.Exposition}). *)

type t

val start : port:int -> unit -> t
(** Bind the loopback [port] ([0] picks a free one — see {!port}) and
    start the responder thread, which renders the process-wide registry
    with its global rollup windows.
    @raise Unix.Unix_error when the port cannot be bound. *)

val port : t -> int
(** The actually bound port. *)

val stop : t -> unit
(** Stop the intake ({!Channel.stop}: an idle responder returns at
    once), join the thread and close the listener.  Idempotent in
    effect; safe to call once the thread has died. *)
