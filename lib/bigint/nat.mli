(** Unsigned arbitrary-precision natural numbers on base-2^31 limb vectors.

    This is the low-level engine underneath {!Bigint}.  A value of type
    {!t} is an [int array] of limbs in little-endian order, each limb in
    [\[0, 2^31)].  All values are kept {e normalized}: no most-significant
    zero limbs, and zero is the empty array.  Functions in this module
    assume (and preserve) normalization; callers constructing arrays by
    hand must call {!normalize}.

    The limb base 2^31 is chosen so that [limb * limb + limb + limb] never
    exceeds OCaml's 63-bit native [int] range, which lets multiplication
    and division run without boxed arithmetic.  Montgomery arithmetic
    does not run on these limbs: {!Montgomery} converts to 64-bit limbs
    for its C kernel. *)

type t = int array

val base_bits : int
(** Number of bits per limb (31; [mont_stubs.c] reads limbs of this
    width). *)

val zero : t
val one : t

val is_zero : t -> bool

val normalize : t -> t
(** Strip most-significant zero limbs (returns the argument when already
    normalized). *)

val of_int : int -> t
(** [of_int v] converts a non-negative native integer.
    @raise Invalid_argument if [v < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt v] is [Some n] when [v] fits a native [int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val add : t -> t -> t
val add_int : t -> int -> t
(** [add_int a v] adds a small non-negative native integer. *)

val sub : t -> t -> t
(** [sub a b] requires [a >= b].
    @raise Invalid_argument otherwise. *)

val mul : t -> t -> t
(** Product, using schoolbook multiplication below {!karatsuba_threshold}
    limbs and Karatsuba recursion above it. *)

val mul_limb : t -> int -> t
(** [mul_limb a d] multiplies by a single limb [0 <= d < base]. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b], computed
    with Knuth's Algorithm D.
    @raise Division_by_zero if [b] is zero. *)

val divmod_limb : t -> int -> t * int
(** [divmod_limb a d] for a single limb divisor [0 < d < base]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val testbit : t -> int -> bool

val of_bytes_be : string -> t
(** Big-endian unsigned bytes to natural number.  Empty string is zero. *)

val to_bytes_be : t -> string
(** Minimal big-endian representation; [""] for zero. *)

val karatsuba_threshold : int

val pp : Format.formatter -> t -> unit
(** Hex dump, for debugging. *)
