(** Fixed-base windowed exponentiation (BGMW).

    Precomputes, once per (base, modulus) pair, the powers
    [base^(i * 2^(j*w))] in Montgomery form so that later
    exponentiations cost ~[bits/w] multiplications and no squarings.
    Worth it whenever the same base is raised to many exponents:
    Paillier noise subgroup generators, per-key precomputation.

    Tables are immutable after {!create} and safe to share across
    Domains. *)

type t

val create : ?window:int -> Modular.ctx -> max_bits:int -> Bigint.t -> t
(** [create ctx ~max_bits base] builds the table covering exponents of
    up to [max_bits] bits.  [window] defaults to 4; the table holds
    [(2^window - 1) * ceil (max_bits / window)] residues.
    @raise Invalid_argument on a window outside [1..8] or
    non-positive [max_bits]. *)

val max_bits : t -> int
(** Largest exponent bit-length the table covers. *)

val pow : Modular.ctx -> t -> Bigint.t -> Bigint.t
(** [pow ctx t e] = [base^e mod m] as a canonical residue.
    @raise Invalid_argument if [e] is negative or wider than
    [max_bits t]. *)

val pow_raw : t -> Bigint.t -> Montgomery.elt
(** Same, but returns the Montgomery form (for callers that keep
    chaining multiplications in form). *)
