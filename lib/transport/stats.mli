(** Communication accounting.

    Counts every frame that crosses the client/server boundary: bytes and
    protocol "values" per direction, plus round trips — the quantities of
    the paper's Section 5.2 analysis ([mn(d + k + 4)] values total for
    secure DTW) and the "data transferred" series in Figures 5–11. *)

type t

val create : unit -> t

val record_sent : t -> bytes:int -> values:int -> unit
(** Client-to-server frame. *)

val record_received : t -> bytes:int -> values:int -> unit
(** Server-to-client frame. *)

val record_round : t -> unit

val record_failure : t -> unit
(** A transport fault on this channel/session: connection lost mid-round
    or a frame rejected by its integrity check.  Failures previously
    bypassed accounting entirely (raw [Unix.Unix_error] escaped before
    any counter moved); the typed {!Channel.Connection_lost} path records
    them here. *)

val bytes_sent : t -> int
val bytes_received : t -> int
val total_bytes : t -> int
val values_sent : t -> int
val values_received : t -> int
val total_values : t -> int
val rounds : t -> int
val messages : t -> int
val failures : t -> int

val reset : t -> unit
val merge : t -> t -> t
(** Sum of two accountings (fresh accumulator). *)

val pp : Format.formatter -> t -> unit

val fields : t -> (string * int) list
(** Every counter under its name ([bytes_sent], ..., [failures]), the
    names of the server's [server.traffic.*] process totals. *)

val of_fields : (string -> int) -> t
(** Inverse of {!fields}: read each counter by its name. *)
