(** Windowed aggregation over the cumulative {!Metrics} registry.

    A rollup keeps a ring of boundary snapshots (one per slot, default one
    minute) and answers "last N slots" queries as the delta between the
    live registry and the boundary N slots back.  Nothing hooks the metric
    update paths, so the clean-path overhead of windowed aggregation is
    zero by construction; all differencing happens at exposition time.

    Snapshots advance opportunistically: every reader calls {!tick}
    (directly or via {!window}/{!ewma}), which captures a
    boundary when the clock has crossed into a new slot.  The clock is
    injectable for deterministic tests. *)

type t

val create : ?now:(unit -> float) -> ?slot_s:float -> unit -> t
(** [create ()] starts a rollup anchored at the current clock value.
    [slot_s] is the slot width in seconds (default 60).  It keeps 16
    past boundaries, enough for a 15-minute window, and smooths the
    EWMA rates with factor 0.3.
    @raise Invalid_argument on non-positive [slot_s]. *)

val tick : t -> unit
(** Advance the ring if the clock crossed a slot boundary; otherwise a
    cheap no-op.  Safe from any thread. *)

type windowed_counter = {
  wc_name : string;
  wc_delta : int;  (** increase over the window *)
  wc_rate : float;  (** [wc_delta] per second of actual span *)
}

type windowed_histogram = {
  wh_name : string;
  wh_count : int;
  wh_sum : float;
  wh_p50 : float;
  wh_p95 : float;
  wh_p99 : float;
      (** quantiles interpolated from bucket-count deltas; observations
          past the last finite bound clamp to that bound *)
}

type window = {
  w_slots : int;
  w_span_s : float;  (** actual seconds covered (partial current slot included) *)
  w_counters : windowed_counter list;  (** sorted by name *)
  w_histograms : windowed_histogram list;  (** sorted by name *)
}

val window : t -> slots:int -> window
(** Activity over the last [slots] slots (including the partial current
    one).  With less history than requested, covers what exists.
    @raise Invalid_argument if [slots] < 1. *)

val ewma : t -> (string * float) list
(** Exponentially-smoothed per-second rate of every counter, updated at
    each slot advance; sorted by name. *)

val slot_seconds : t -> float

val global : unit -> t
(** Lazily-created process-wide rollup with one-minute slots, used by the
    server stats text and the metrics endpoint. *)
