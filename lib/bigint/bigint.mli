(** Arbitrary-precision signed integers (pure OCaml, no GMP/zarith).

    Values are immutable.  The representation is sign-and-magnitude over
    {!Nat} limb vectors.  All operations are total unless documented
    otherwise.  This module is the public arithmetic surface used by the
    Paillier cryptosystem and the secure protocols; performance-sensitive
    modular exponentiation lives in {!Modular} / {!Montgomery}. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t
val to_int_opt : t -> int option

val to_int_exn : t -> int
(** @raise Failure when the value does not fit a native [int]. *)

val of_string : string -> t
(** Decimal by default; accepts an optional leading [-] and the [0x]/[0X]
    prefix for hexadecimal.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_string_hex : t -> string
(** Lower-case hex with [0x] prefix (["-0x..."] for negatives). *)

val of_bytes_be : string -> t
(** Unsigned big-endian bytes; result is non-negative. *)

val to_bytes_be : t -> string
(** Magnitude as minimal big-endian bytes (sign is dropped). *)

(** {1 Inspection} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_negative : t -> bool
val is_even : t -> bool
val is_odd : t -> bool

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
(** Bit [i] of the magnitude. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val div : t -> t -> t
(** Truncated division (rounds toward zero), as for native [int].
    @raise Division_by_zero *)

val rem : t -> t -> t
(** Remainder matching {!div}: [a = add (mul (div a b) b) (rem a b)];
    the result has the sign of [a].
    @raise Division_by_zero *)

val divmod : t -> t -> t * t
(** [(div a b, rem a b)] in one pass. *)

val ediv_rem : t -> t -> t * t
(** Euclidean division: [(q, r)] with [a = q*b + r] and [0 <= r < |b|].
    @raise Division_by_zero *)

val erem : t -> t -> t
(** Euclidean remainder, always in [\[0, |b|)]. Used for modular
    arithmetic where canonical non-negative residues are required.
    @raise Division_by_zero *)

val mul_int : t -> int -> t

val pow : t -> int -> t
(** [pow b e] for [e >= 0] (plain integer power, not modular).
    @raise Invalid_argument if [e < 0]. *)

val isqrt : t -> t
(** Integer square root: the largest [r] with [r² <= t].
    @raise Invalid_argument for negative input. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift of the magnitude (sign preserved). *)

val pp : Format.formatter -> t -> unit

(** {1 Internal access}

    Exposed for the sibling modules of this library ({!Montgomery},
    {!Modular}); external users should not rely on it. *)

val magnitude : t -> Nat.t
val of_nat : Nat.t -> t
