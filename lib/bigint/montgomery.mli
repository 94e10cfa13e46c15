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
    672; the kernel's one window loop, which reads [e] as 64-bit limbs).
    [e = 0] yields {!one_raw}.
    @raise Invalid_argument as {!mont_mul_raw}. *)

val pow_of_nat : ctx -> Nat.t -> Nat.t -> elt
(** [pow_of_nat ctx x e] = [pow_raw ctx (to_mont ctx x) e] in one C call.
    @raise Invalid_argument if [x] is wider than the context. *)

(** {1 Paillier's operations}

    One C call per Paillier operation (paillier.ml).  Like the rest of
    the kernel these are not constant-time, on the secret primes
    included (SECURITY.md). *)

val seal : ctx -> n:Nat.t -> Nat.t -> elt -> elt
(** [seal ctx ~n m y] is [(1 + m n) y] in Montgomery form, for [y] in
    form: Paillier's encryption step [g^m r^n] with [g = n + 1], since
    [g^m = 1 + m n mod n^2] when [m < n].
    @raise Invalid_argument if [1 + m n] is not below [R] or [y] was
    made under a context of another width. *)

type crt
(** A Paillier key's kernel context: the Montgomery kernels of [p],
    [q], [p^2], [q^2] and [n^2], a table of [R^(i+2) mod m] per prime
    and prime square (for folding values of [n^2]'s width into
    Montgomery form), and the CRT constants.  Immutable; safe to share
    across Domains. *)

val crt_create :
  p:Nat.t -> q:Nat.t -> n2:ctx -> hp:Nat.t -> hq:Nat.t -> p_inv_q:Nat.t ->
  p2_inv_q2:Nat.t -> crt
(** The context of the odd primes [p] and [q], given [n^2]'s context,
    [hp = L_p(g^(p-1) mod p^2)^-1 mod p], [hq] likewise, [p^-1 mod q]
    and [p^-2 mod q^2]. *)

val crt_decrypt : crt -> Nat.t -> Nat.t option
(** Paillier's CRT decryption (Paillier 1999, Section 7) of [c < R] for
    [n^2]'s [R]: [c] folded into form mod [p^2] and [q^2], the two half
    powers [c^(p-1)] and [c^(q-1)], [L] by exact division, the [hp]
    and [hq] products and Garner's recombination.  [None] when [c] is
    not a unit mod [n], which the exact division detects.
    @raise Invalid_argument if [c] is wider than [n^2]. *)

val crt_is_unit : crt -> Nat.t -> bool
(** [gcd c n = 1] for [c < R] ([n^2]'s): neither [c mod p] nor [c mod q]
    is zero, each found by folding.
    @raise Invalid_argument as {!crt_decrypt}. *)

val crt_noise : crt -> Nat.t -> elt
(** [r^n mod n^2] in Montgomery form under [n^2]'s context, for [r < R]:
    the Teichmueller lifts [((r mod p)^q mod p)^p mod p^2] and
    [((r mod q)^p mod q)^q mod q^2], recombined by Garner mod [q^2].
    @raise Invalid_argument as {!crt_decrypt}. *)
