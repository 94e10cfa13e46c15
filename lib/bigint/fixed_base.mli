(** Fixed-base exponentiation by a Lim–Lee comb (Lim and Lee,
    CRYPTO '94).

    Precomputes, once per (base, modulus) pair, products of the base's
    powers at the comb's row and sub-comb offsets, in Montgomery form.
    With [t] teeth and [c] sub-combs of [s] bits (an exponent of up to
    [t * c * s] bits), the table holds [c * (2^t - 1)] residues and a
    power costs [s - 1] squarings and at most [c * s] products.  Worth
    it whenever the same base is raised to many exponents: Paillier's
    subgroup-noise generator.

    Tables are immutable after {!create} and safe to share across
    Domains. *)

type t

val create : ?window:int -> Modular.ctx -> max_bits:int -> Bigint.t -> t
(** [create ctx ~max_bits base] builds the comb covering exponents of
    up to [max_bits] bits.  [window] is the teeth count [t] (default 8;
    no more than [max_bits] are used); the rows of [ceil (max_bits / t)]
    bits are cut into [c = 4] sub-combs, fewer when a row holds fewer
    than 4 bits, of [s] bits each.  The table holds [c * (2^t - 1)]
    residues, built with [(t * c - 1) * s] squarings and
    [c * (2^t - 1 - t)] products: at [max_bits] 576, 1,020 residues
    from about 1,546 products, and 17 squarings plus at most 72
    products per power.
    @raise Invalid_argument on a window outside [1..8] or
    non-positive [max_bits]. *)

val max_bits : t -> int
(** Largest exponent bit-length the table covers, [t * c * s]: at
    least the [max_bits] it was created with, and more when the rows or
    sub-combs do not divide it evenly. *)

val pow : Modular.ctx -> t -> Bigint.t -> Bigint.t
(** [pow ctx t e] = [base^e mod m] as a canonical residue.
    @raise Invalid_argument if [e] is negative or wider than
    [max_bits t]. *)

val pow_raw : t -> Bigint.t -> Montgomery.elt
(** Same, but returns the Montgomery form (for callers that keep
    chaining multiplications in form). *)
