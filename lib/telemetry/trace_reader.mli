(** Reader for {!Telemetry.jsonl_sink} traces: a minimal hand-rolled
    JSON parser (no external JSON dependency), per-phase/per-round
    aggregation (the [ppst_analyze trace] table), and a leakage lint
    used by [scripts/ci.sh]. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

type kind = Start | End | Point

type entry = {
  kind : kind;
  id : int;  (** 0 for points *)
  name : string;
  t : float;
  dt : float;  (** 0 except for [End] *)
  attrs : (string * json) list;
}

val entry_of_line : string -> entry
(** @raise Parse_error when the line is not a telemetry record. *)

type tail = Complete | Truncated of { line : int; reason : string }

val read_file_partial : string -> entry list * tail
(** Like {!read_file}, but a malformed {e final} line — the expected
    artifact of a writer killed mid-record — is reported as a typed
    [Truncated] tail alongside every complete entry before it, instead of
    raising.  A malformed line followed by well-formed lines still raises
    [Parse_error] (that is corruption, not truncation).
    @raise Sys_error if unreadable. *)

val read_file : string -> entry list
(** Blank lines are skipped. @raise Parse_error with the line number on
    the first malformed line (including a truncated final line).
    @raise Sys_error if unreadable. *)

val lint_entry : entry -> string option
(** Leakage lint: [Some reason] when the entry carries anything the
    telemetry value variant could not have produced — free-form strings,
    numbers above 10^15 (sizes/opcodes/durations are all far smaller;
    plaintexts and offsets are hundreds of digits), nested values,
    oversized names. *)

(** {1 Aggregation} *)

type span_row = { span_name : string; span_count : int; total_s : float }

type round_row = {
  opcode : int;
  round_count : int;
  request_bytes : int;
  reply_bytes : int;
  latency_s : float;
}

type summary = {
  spans : span_row list;  (** by name, alphabetical *)
  rounds : round_row list;  (** by opcode, ascending *)
  total_round_bytes : int;
  total_rounds : int;
  total_latency_s : float;
}

val summarize : entry list -> summary
(** Spans aggregate every [End] record by name; rounds aggregate
    ["channel.round"] points by opcode.  [total_round_bytes] equals
    [Stats.total_bytes] of the traced channel exactly (every
    request/reply pair is recorded with its frame payload sizes). *)

val pp_summary :
  opcode_name:(int -> string) -> Format.formatter -> summary -> unit
(** The per-phase and per-round tables; [opcode_name] labels a round's
    request tag ([ppst_analyze] passes [Ppst_transport.Message.request_name]). *)
