(** Modular arithmetic over {!Bigint}: reduction, inverses, GCD and fast
    exponentiation (Montgomery-backed for odd moduli). *)

exception Not_invertible
(** Raised by {!invert} when the element shares a factor with the
    modulus. *)

val reduce : Bigint.t -> Bigint.t -> Bigint.t
(** Canonical residue in [\[0, m)]. *)

val add : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val sub : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val mul : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [add a b m], [sub a b m], [mul a b m] — all reduced into [\[0, m)]. *)

val gcd : Bigint.t -> Bigint.t -> Bigint.t
(** Non-negative GCD of the magnitudes ([gcd 0 0 = 0]), by binary GCD
    in C; variable-time. *)

val coprime : Bigint.t -> Bigint.t -> bool
(** [gcd a b = 1], by the same binary GCD with no [Bigint] result. *)

val lcm : Bigint.t -> Bigint.t -> Bigint.t

val egcd : Bigint.t -> Bigint.t -> Bigint.t * Bigint.t * Bigint.t
(** [egcd a b = (g, u, v)] with [u*a + v*b = g = gcd a b]: extended
    Euclid in OCaml, the tests' reference for {!invert}. *)

val invert : Bigint.t -> Bigint.t -> Bigint.t
(** Modular inverse in [\[0, m)] for an odd modulus [m] (binary
    extended Euclid in C, variable-time); [invert a 1 = 0].
    @raise Not_invertible when [gcd a m <> 1].
    @raise Invalid_argument on an even or non-positive modulus. *)

val pow_mod : ?ctx:Montgomery.ctx -> Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [pow_mod b e m] = [b^e mod m], [e >= 0].  Uses Montgomery
    exponentiation when [m] is odd (pass [?ctx] to reuse a context),
    naive square-and-multiply otherwise. *)

val pow_mod_naive : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** Reference square-and-multiply with a full division per step — the
    even-modulus fallback of {!pow_mod}, exposed so differential tests
    can pit the Montgomery path against it.  [e >= 0]; [m >= 1]. *)

(** {1 Fixed-modulus contexts}

    Precompute Montgomery constants once for a long-lived odd modulus. *)

type ctx

val make_ctx : Bigint.t -> ctx
(** @raise Invalid_argument on even or non-positive modulus. *)

val ctx_modulus : ctx -> Bigint.t
val pow_ctx : ctx -> Bigint.t -> Bigint.t -> Bigint.t
val mul_ctx : ctx -> Bigint.t -> Bigint.t -> Bigint.t

val mont_of_ctx : ctx -> Montgomery.ctx
(** The underlying Montgomery context, for limb-level hot paths
    ({!Fixed_base} tables, in-form homomorphic chains). *)

val to_mont_ctx : ctx -> Bigint.t -> Montgomery.elt
(** Reduce mod the context modulus and convert to Montgomery form. *)

val of_mont_ctx : ctx -> Montgomery.elt -> Bigint.t
(** Convert out of Montgomery form to a canonical residue. *)
