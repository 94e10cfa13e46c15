(** Binary wire primitives: length-prefixed, big-endian framing used by
    {!Message}.  All reads are bounds-checked and raise {!Malformed}
    rather than any array/string exception, so a corrupted or adversarial
    peer cannot crash a party with an unexpected exception type. *)

exception Malformed of string

(** {1 Writing} *)

type writer

val writer : unit -> writer
val put_u8 : writer -> int -> unit
val put_u32 : writer -> int -> unit
(** @raise Invalid_argument outside [\[0, 2^32)]. *)

val put_bytes : writer -> string -> unit
(** Length-prefixed byte string. *)

val put_f64 : writer -> float -> unit
(** IEEE-754 double as its 8-byte big-endian bit pattern (exact
    round-trip, NaN included). *)

val put_bigint : writer -> Ppst_bigint.Bigint.t -> unit
(** Sign byte + length-prefixed magnitude. *)

val put_bigint_array : writer -> Ppst_bigint.Bigint.t array -> unit
val contents : writer -> string

(** {1 Reading} *)

type reader

val reader : string -> reader
val get_u8 : reader -> int
val get_u32 : reader -> int

val u32_at : string -> int -> int
(** [u32_at s pos] is the unsigned big-endian 32-bit word at [pos] of
    [s], as {!put_u32} writes it and as {!Channel} frames carry their
    length header and CRC-32 trailer.  Not bounds-checked against
    {!Malformed}: a [pos] past the end raises [Invalid_argument]. *)

val get_f64 : reader -> float
val get_bytes : reader -> string
val get_bigint : reader -> Ppst_bigint.Bigint.t
val get_bigint_array : reader -> Ppst_bigint.Bigint.t array
val expect_end : reader -> unit
(** @raise Malformed when trailing bytes remain. *)

val remaining : reader -> int
