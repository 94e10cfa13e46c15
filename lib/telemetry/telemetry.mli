(** Structured spans/events with leakage-safe attributes.

    Instrumentation sites call {!span} / {!event}; records flow to zero
    or more registered sinks (null, pretty stderr, JSONL file), each with
    its own verbosity threshold.  With no sinks registered every call is
    a single atomic load — the protocol pays (almost) nothing when
    observability is off.

    {b Leakage safety (see SECURITY.md).}  Attribute values are the
    closed variant {!value}: counts, byte sizes, durations, wire opcodes,
    phase tags, booleans.  No constructor accepts a string or a bigint,
    so plaintexts, masking offsets and ciphertext bytes cannot be logged
    by construction.

    {b Determinism.}  Telemetry never draws from [Secure_rng] and never
    touches protocol state; seeded transcripts are bit-identical with
    sinks on or off (asserted in [test/test_parallel.ml]). *)

type level = Quiet | Info | Debug

type phase = Phase1 | Phase2 | Phase3 | Offline

(** The only payloads an attribute can carry. *)
type value =
  | Int of int  (** counts, indices, ids *)
  | Size of int  (** byte sizes *)
  | Duration of float  (** seconds *)
  | Opcode of int  (** wire tags, [0x00]..[0xFF] *)
  | Phase of phase
  | Flag of bool

type attr = string * value

type event =
  | Span_start of { id : int; name : string; t : float; attrs : attr list }
  | Span_end of { id : int; name : string; t : float; dt : float; attrs : attr list }
  | Point of { name : string; t : float; attrs : attr list }

val now : unit -> float
(** Monotonic seconds from an arbitrary fixed origin: the one clock of
    every measured duration (spans, [Cost]'s per-phase split, handler
    time) and every deadline ([Ppst_transport.Monoclock.now] is this
    function).  Only differences between two readings are meaningful. *)

val event_to_json : event -> string
(** One JSONL line, no trailing newline ([Trace_reader] parses it back). *)

(** {1 Sinks} *)

type sink = { emit : event -> unit; flush : unit -> unit }

val jsonl_sink : out_channel -> sink

val add_sink : ?level:level -> sink -> unit
(** Register a sink receiving events at or below [level] (default
    [Info]). *)

val clear_sinks : unit -> unit
(** Unregister (and flush) every sink. *)

val enabled : level -> bool
(** [true] iff some registered sink would receive an event at [level]. *)

(** {1 Spans and events} *)

type span_handle

val start : name:string -> ?attrs:attr list -> unit -> span_handle
(** Open a span at level [Info]. *)

val finish : ?attrs:attr list -> span_handle -> unit
(** End-of-span attributes (e.g. an outcome only known at the end) are
    appended to the [Span_end] record. *)

val span : name:string -> ?attrs:attr list -> (unit -> 'a) -> 'a
(** [span ~name ~attrs f] emits start/end records around [f] (an
    escaping exception ends the span with [("error", Flag true)] and
    re-raises). *)

val event : ?level:level -> name:string -> ?attrs:attr list -> unit -> unit

(** {1 CLI convenience} *)

val configure : ?level:string -> ?json:bool -> ?trace_out:string -> unit -> unit
(** Shared [--log-level] / [--log-json] / [--trace-out] plumbing for the
    binaries: resets sinks, then registers a stderr sink (pretty, or
    JSONL with [json]) gated at [level] (default ["quiet"] = none), and a
    Debug-level JSONL sink on the [trace_out] file (closed at exit).
    @raise Invalid_argument on an unknown level name.
    @raise Sys_error when [trace_out] cannot be opened. *)
