(** Montgomery modular multiplication and exponentiation for odd moduli,
    run by a C kernel (product scanning over 64-bit limbs, [R = 2^(64w)]
    for a modulus of [w] limbs, and a dedicated square).
    Most callers should use the {!Modular} wrappers; this interface
    exists for the hot paths that chain products in Montgomery form.

    The kernel keeps no global state, so contexts and values may be
    shared across Domains.  It is not constant-time (SECURITY.md). *)

type ctx

type elt
(** A residue in Montgomery form ([aR mod n]) under the context that
    made it.  {!to_mont} and {!of_mont} are the only conversions. *)

exception Even_modulus

val create : Nat.t -> ctx
(** Precompute constants for an odd modulus.
    @raise Even_modulus if the modulus is even or zero. *)

val pow_mod : ctx -> Nat.t -> Nat.t -> Nat.t
(** [pow_mod ctx b e] = [b^e mod n] for [b < n] (reduced). *)

val mul_mod : ctx -> Nat.t -> Nat.t -> Nat.t
(** [mul_mod ctx a b] = [a*b mod n] for reduced [a], [b]. *)

val to_mont : ctx -> Nat.t -> elt
(** Montgomery form of [a], for any [a < R].
    @raise Invalid_argument if [a] has more limbs than the context. *)

val of_mont : ctx -> elt -> Nat.t
(** The canonical residue in [\[0, n)]. *)

val mont_mul_raw : ctx -> elt -> elt -> elt
(** [mont_mul_raw ctx a b] is the Montgomery form of the product; one
    value passed as both operands is squared.
    @raise Invalid_argument if an operand was made under a context of
    another width.  Values of two moduli of one width cannot be told
    apart; mixing them is the caller's error. *)

val one_raw : ctx -> elt
(** Montgomery form of 1 ([R mod n]). *)

val pow_raw : ctx -> elt -> Nat.t -> elt
(** [pow_raw ctx x e] with [x] in Montgomery form returns [x^e] in
    Montgomery form (a sliding window over squares, its width growing
    with the length of [e]: 1 bit up to 12-bit exponents, 6 bits beyond
    672).  [e = 0] yields {!one_raw}.
    @raise Invalid_argument as {!mont_mul_raw}. *)
