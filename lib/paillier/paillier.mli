(** The Paillier cryptosystem (Paillier, EUROCRYPT 1999) — the partially
    homomorphic encryption engine of the secure time-series protocols.

    Supported homomorphisms, with [n] the public modulus:
    - {e addition}: [Dec (add pk c1 c2) = (m1 + m2) mod n]
    - {e plaintext multiplication}: [Dec (scalar_mul pk c k) = (k * m) mod n]
      (a negative [k] negates, so [k = -1] with {!add} subtracts)

    The paper's path hiding (Section 5.5) is no ciphertext operation:
    the key holder answers each masked-extreme round with a {e fresh}
    encryption of the extreme it picked ([Server.extremes]).

    Key generation uses [g = n + 1], the standard simplification for which
    encryption needs a single [r^n mod n^2] exponentiation.  Every
    encryption is [g^m * r^n mod n^2] computed in one place; the entry
    points differ only in where the noise [r^n] comes from. *)

open Ppst_bigint

type public_key = {
  n : Bigint.t;          (** modulus [p*q] *)
  n_squared : Bigint.t;  (** ciphertext modulus [n^2] *)
  g : Bigint.t;          (** generator, fixed to [n + 1] *)
  bits : int;            (** bit length of [n] *)
  ctx_n2 : Modular.ctx;  (** Montgomery context for [n^2] (precomputed) *)
}

type private_key = {
  p : Bigint.t;
  q : Bigint.t;
  lambda : Bigint.t;     (** [lcm (p-1) (q-1)] *)
  mu : Bigint.t;         (** [lambda^-1 mod n] *)
  public : public_key;
  crt : Montgomery.crt;
  (** The kernel context built once at key creation: the Montgomery
      kernels of [p], [q], [p²], [q²] and [n²] and the CRT constants
      [hp], [hq], [p^-1 mod q] and [p^-2 mod q²] that {!decrypt_crt},
      {!encrypt_sk} and {!validate_ciphertext} run on. *)
}

type ciphertext
(** Abstract: a value in [(Z/n^2)^*].  Equality of ciphertexts does not
    imply equality of plaintexts and vice versa (probabilistic
    encryption). *)

exception Invalid_plaintext of string
(** Raised when a plaintext lies outside [\[0, n)]. *)

exception Invalid_ciphertext of string
(** A value presented as a ciphertext is not one: outside
    [\[1, n^2-1\]] or not a unit of [Z_{n^2}] ([gcd(c, n) <> 1]).
    Raised by {!validate_ciphertext} at hostile-input boundaries so
    garbage is rejected {e before} any CRT exponentiation runs and can
    never surface as a nonsense distance. *)

exception Key_mismatch
(** Raised when ciphertexts from different keys are combined. *)

val public_of_modulus : Bigint.t -> bits:int -> public_key
(** Rebuild a public key from a received modulus [n] — what the client
    does with the server's [Welcome] message.  Validates that [n] is odd,
    positive and of the stated bit length.
    @raise Invalid_plaintext on an implausible modulus. *)

val keygen : ?bits:int -> Ppst_rng.Secure_rng.t -> public_key * private_key
(** Generate a fresh key pair; [bits] is the modulus size (default 64,
    matching the paper's experimental security parameter).  [p] and [q]
    are balanced random primes of [bits/2] bits with [gcd(pq, (p-1)(q-1))
    = 1]. *)

val of_primes : p:Bigint.t -> q:Bigint.t -> public_key * private_key
(** Assemble a key pair from two distinct odd primes.  Validates the
    [gcd(pq, (p-1)(q-1)) = 1] requirement (primality itself is the
    caller's responsibility — key loading uses this after a
    probable-prime check).
    @raise Invalid_plaintext when the primes are unusable. *)

val private_key_to_string : private_key -> string
(** Serialize as ["ppst-paillier-v1\np=<dec>\nq=<dec>\n"] — everything
    else is re-derived on load. *)

val private_key_of_string : string -> public_key * private_key
(** @raise Invalid_plaintext on malformed input or non-prime components. *)

val encrypt : public_key -> Ppst_rng.Secure_rng.t -> Bigint.t -> ciphertext
(** [encrypt pk rng m] for [m] in [\[0, n)].
    @raise Invalid_plaintext otherwise. *)

val encrypt_sk : private_key -> Ppst_rng.Secure_rng.t -> Bigint.t -> ciphertext
(** Key-holder encryption: identical output to {!encrypt} (same rng
    draws, same ciphertext bytes) but the [r^n mod n²] noise is computed
    by CRT over [p²]/[q²], each half as [((r mod p)^q mod p)^p mod p²]
    (two half-width exponents, exact because [x^p mod p²] depends only
    on [x mod p]).  Each unit draw is tested by one C call on the key's
    kernel context, the noise is one more, and the encryption step a
    third.  The server's encryption path uses this. *)

val decrypt : private_key -> ciphertext -> Bigint.t
(** Plaintext in [\[0, n)] via [L(c^lambda mod n^2) * mu mod n]: the
    paper's decryption, and the tests' reference for {!decrypt_crt}. *)

val decrypt_crt : private_key -> ciphertext -> Bigint.t
(** Same result as {!decrypt}, by Paillier's CRT method (Section 7 of the
    paper) in one C call: [m_p = L_p(c^(p-1) mod p²) hp mod p], [m_q]
    likewise, recombined by Garner, with [L] computed by exact division.
    The ciphertext must be a unit of [Z_{n^2}], as every ciphertext built
    here or passed by {!validate_ciphertext} is.
    @raise Invalid_ciphertext when it is not. *)

(** {1 Batch entry points}

    Paillier work is embarrassingly parallel per ciphertext.  The batch
    variants fan the pure exponentiations out over a
    {!Ppst_parallel.Pool} ([workers], default sequential) while drawing
    any randomness {e sequentially and in element order} first — a
    seeded rng therefore advances identically for every pool size, and
    results are always in input order. *)

val encrypt_batch_sk :
  ?workers:Ppst_parallel.Pool.t ->
  private_key -> Ppst_rng.Secure_rng.t -> Bigint.t array -> ciphertext array
(** Element-wise {!encrypt_sk}: byte-identical to [Array.map (encrypt pk
    rng)] on the same rng, at any worker count. *)

val decrypt_batch :
  ?workers:Ppst_parallel.Pool.t -> private_key -> ciphertext array -> Bigint.t array
(** Element-wise {!decrypt}. *)

val decrypt_crt_batch :
  ?workers:Ppst_parallel.Pool.t -> private_key -> ciphertext array -> Bigint.t array
(** Element-wise {!decrypt_crt}. *)

val add : public_key -> ciphertext -> ciphertext -> ciphertext
(** Homomorphic addition: multiply ciphertexts mod [n^2]. *)

val add_plain : public_key -> ciphertext -> Bigint.t -> ciphertext
(** Homomorphic addition of a plaintext constant (no randomness needed:
    [c * g^k mod n^2]). *)

val scalar_mul : public_key -> ciphertext -> Bigint.t -> ciphertext
(** Homomorphic multiplication by a plaintext scalar: [c^k mod n^2].
    Negative scalars are handled through [k mod n]. *)

val invert_ciphertext : public_key -> ciphertext -> ciphertext
(** [Enc(m)^-1 mod n²]: an encryption of [-m mod n] obtained by one
    modular inverse instead of the full-width [n-1] power that
    [scalar_mul pk c (-1)] pays.  Decrypts identically but the
    ciphertext bytes differ, so it belongs to the packed
    (distance-compared) fast path.  Genuine ciphertexts are units mod
    [n²], so the inverse always exists. *)

(** {1 Offline/online encryption}

    The plaintext-independent factor [r^n mod n²] dominates encryption
    cost.  A party can precompute a pool of such factors while idle
    (Paillier 1999, Section 6) and then encrypt online with two modular
    multiplications.  The protocol client — the weak party of the paper's
    asymmetric setting — uses this for its phase-2/3 masking offsets.

    The pool is a mutex-guarded FIFO, safe to fill and drain from
    several Domains: entries come out in production order, so a pooled
    run consumes its rng's r-sequence exactly as the unpooled run does
    and transcripts stay bit-identical. *)

type randomness_pool

val pool_create : public_key -> randomness_pool
val pool_size : randomness_pool -> int

val pool_misses : randomness_pool -> int
(** Number of encryptions that found the pool empty and had to pay an
    {e online} [r^n] exponentiation.  A correctly provisioned offline
    run keeps this at zero — the cost-split experiments assert it. *)

val pool_refill :
  ?workers:Ppst_parallel.Pool.t ->
  public_key -> randomness_pool -> Ppst_rng.Secure_rng.t -> int -> unit
(** Precompute [count] more [r^n] factors.  The unit draws are
    sequential; the exponentiations fan out over [workers].
    @raise Key_mismatch if the pool belongs to another key. *)

val pool_refill_fast :
  ?workers:Ppst_parallel.Pool.t ->
  public_key -> randomness_pool -> Ppst_rng.Secure_rng.t -> int -> unit
(** Subgroup-noise refill: a fresh {!noise_gen} (one full-width [h^n]
    exponentiation), then [count] of its factors — an order of
    magnitude cheaper per entry.  The exponent draws are sequential;
    the table walks fan out over [workers].  Same entries, in the same
    order, as [count] calls of {!noise_gen_rn} on a generator made from
    the same rng.  Reserved for the packed protocol profile (see
    {!noise_gen} and SECURITY.md).
    @raise Key_mismatch if the pool belongs to another key. *)

val encrypt_pooled :
  public_key -> randomness_pool -> Ppst_rng.Secure_rng.t -> Bigint.t -> ciphertext
(** Like {!encrypt}, consuming one pooled factor; falls back to a fresh
    exponentiation when the pool is empty and counts the miss
    (see {!pool_misses}).
    @raise Invalid_plaintext / @raise Key_mismatch as {!encrypt}. *)

(** {2 Split acquisition}

    [rn_acquire]/[rn_realize] separate the stateful part of pooled
    encryption (pool pop or rng draw — sequential) from the expensive
    pure part (the owed exponentiation on a miss — parallelizable).
    [encrypt_pooled] is [encrypt_with_rn ~rn:(rn_realize pk (rn_acquire
    pk pool rng))]. *)

type rn
(** A realized [r^n mod n²] factor, kept in Montgomery form so online
    encryption is a single in-form multiplication. *)

val rn_of_bigint : public_key -> Bigint.t -> rn

type rn_source

val rn_acquire : public_key -> randomness_pool -> Ppst_rng.Secure_rng.t -> rn_source
(** Dequeue one pooled [r^n] factor; on an empty pool draw a raw unit
    [r] (counting a miss) whose exponentiation is owed.
    @raise Key_mismatch if the pool belongs to another key. *)

val rn_realize : public_key -> rn_source -> rn
(** The [r^n] factor itself; pays the owed exponentiation on a miss.
    Pure — safe inside {!Ppst_parallel.Pool.map_array}. *)

val encrypt_with_rn : public_key -> rn:rn -> Bigint.t -> ciphertext
(** [g^m * rn mod n^2] — two multiplications, no rng.
    @raise Invalid_plaintext as {!encrypt}. *)

type noise_gen
(** The subgroup-noise generator: one unit draw [h] and one full-width
    [h^n] exponentiation at creation, a fixed-base table of [h^n], then
    a stream of cheap factors [h^(n·a)] for fresh short exponents [a]
    of [bits/2 + 64] bits.  It is the only source of subgroup noise:
    {!pool_refill_fast} fills pools from it and the server's packed
    replies draw from it directly.  The factors come
    from the cyclic subgroup generated by [h^n] rather than uniformly
    from all n-th residues, so they are reserved for the packed profile
    (SECURITY.md, "The exception").  Immutable after creation and safe
    to share across Domains. *)

val noise_gen_create : public_key -> Ppst_rng.Secure_rng.t -> noise_gen

val noise_gen_rn : noise_gen -> public_key -> Ppst_rng.Secure_rng.t -> rn
(** Draw one fresh noise factor (a short-exponent table walk).
    @raise Invalid_argument if the generator belongs to another key. *)

(** {1 Plaintext packing}

    [k] values of at most [slot_bits] bits each ride one ciphertext as
    [sum_j v_j * 2^(j*slot_bits)] — slot [j] occupies bits
    [j*slot_bits .. (j+1)*slot_bits - 1], little-endian, with the top
    bit of [n] left as headroom so the packed sum never wraps.  One
    decryption then yields all [k] slots, amortizing the expensive
    exponent across the pack. *)

val pack_capacity : public_key -> slot_bits:int -> int
(** Slots per ciphertext: [(bits(n) - 1) / slot_bits]. *)

val pack_plain : public_key -> slot_bits:int -> Bigint.t array -> Bigint.t
(** Concatenate plaintext slots.
    @raise Invalid_plaintext when a value needs more than [slot_bits]
    bits; @raise Invalid_argument when the slot count is outside
    [1 .. capacity]. *)

val unpack_plain : slot_bits:int -> count:int -> Bigint.t -> Bigint.t array
(** Split a packed plaintext back into [count] slots. *)

val pack_ciphertexts :
  public_key -> slot_bits:int -> ciphertext array -> ciphertext
(** Homomorphic packing by Horner's rule in Montgomery form
    ([slot_bits] squarings + 1 multiplication per slot): decrypts to
    [pack_plain] of the individual plaintexts, provided every slot
    plaintext fits [slot_bits] bits — the {e caller's} obligation, since
    ciphertexts cannot be range-checked. *)

(** {1 Serialization support} *)

val ciphertext_to_bigint : ciphertext -> Bigint.t
val ciphertext_of_bigint : public_key -> Bigint.t -> ciphertext
(** @raise Invalid_plaintext when the value is outside [\[0, n^2)]. *)

val validate_ciphertext : private_key -> Bigint.t -> ciphertext
(** Strict re-wrap for hostile-input boundaries (the server's decrypt
    path): additionally to the range, requires the value to be a unit
    of [Z_{n^2}] — [gcd(c, n) = 1], the defining property of a genuine
    Paillier ciphertext.  The key holder tests it as [p ∤ c] and
    [q ∤ c], [c] folded mod [p] and mod [q] in one C call instead of
    Euclid over [n]; that is
    [gcd(c, n) = 1] only because [p] and [q] are prime, which
    {!of_primes} leaves to its caller and {!private_key_of_string}
    checks.  Rejections bump the [paillier.invalid_ciphertext]
    counter.
    @raise Invalid_ciphertext on [0], out-of-range values or
    non-units. *)

val equal_ciphertext : ciphertext -> ciphertext -> bool
(** Byte-equality of ciphertexts (NOT plaintext equality). *)
