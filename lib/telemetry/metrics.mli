(** Process-wide metrics registry: named counters, gauges and
    fixed-bucket histograms, thread-safe under Domains (one mutex per
    metric).  Metric names are static strings chosen at instrumentation
    sites; values are numbers only — the same leakage discipline as
    {!Telemetry} attributes. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get-or-create.  @raise Invalid_argument if [name] is already
    registered as a different kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val gauge_set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are ascending upper bounds ("le" semantics); an implicit
    overflow bucket catches everything beyond the last bound.  The bounds
    of an already-registered histogram are kept. *)

val observe : histogram -> float -> unit

type histogram_snapshot = {
  buckets : (float * int) array;  (** (upper bound, count in bucket) *)
  overflow : int;
  count : int;
  sum : float;
}

val histogram_snapshot : histogram -> histogram_snapshot

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of histogram_snapshot

val snapshot : unit -> (string * sample) list
(** Cumulative values of every registered metric, sorted by name.  The
    basis for {!Rollup} windowed deltas and {!Exposition} rendering. *)

val scalars : unit -> (string * float) list
(** Every counter and gauge as [(name, value)], sorted by name;
    histograms are left out.  What a supervised worker reports to its
    parent when it drains ([Server_loop.run] on a worker loop). *)

