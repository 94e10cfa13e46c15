(** Probabilistic primality testing (Miller–Rabin) and prime generation. *)

val small_primes : int array
(** All primes up to 1000, used for trial division. *)

val is_probable_prime : Bigint.t -> bool
(** Trial division by {!small_primes} followed by 40 Miller–Rabin rounds
    with pseudo-random witnesses, for a compositeness error below
    4^-40. *)

exception No_prime_found of { bits : int; candidates : int }
(** {!random_prime} drew [candidates] composites in a row.  A correct
    search does so with probability about e^-288, so this names a broken
    primality test (such as a wrong modular power) instead of hanging
    key generation. *)

val random_prime : random_bits:(int -> Bigint.t) -> bits:int -> Bigint.t
(** Random probable prime of exactly [bits] bits.  The two top bits and
    the bottom bit are forced to 1 so that a product of two such primes
    has exactly [2*bits] bits.  [random_bits n] must return a uniform
    non-negative integer of at most [n] bits (supply the CSPRNG from
    [ppst_rng] for cryptographic use).
    @raise No_prime_found after [100 * bits] composite candidates. *)
