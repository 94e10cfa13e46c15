(** Fixed-size Domain worker pool for the embarrassingly parallel parts
    of the protocol — Paillier modular exponentiations, which are
    independent per ciphertext.

    {b Determinism contract.}  [map]/[map_array] preserve input order and
    partition work deterministically (contiguous chunks, a pure function
    of [size t] and the input length).  Callers must pass a {e pure}
    [f]: no RNG draws, no shared mutable state, no counter updates.  The
    protocol layers uphold this by pre-drawing all randomness
    sequentially from the session RNG before fanning out, so a seeded
    run produces bit-identical transcripts at any pool size.

    A pool of size 1 spawns no domains and runs everything in the
    calling thread — the default for tests and the safe fallback
    everywhere.  A pool's lanes are the library's only Domains. *)

type t

val create : int -> t
(** [create n] spawns [n - 1] worker domains ([n] total execution lanes
    counting the caller, which always participates in [map_array]).
    [create 1] spawns nothing and is purely sequential.
    @raise Invalid_argument when [n < 1]. *)

val size : t -> int
(** Number of execution lanes (the [n] given to {!create}). *)

val sequential : t
(** A shared size-1 pool: no domains, no shutdown needed. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f arr] = [Array.map f arr], computed on up to [size t]
    lanes.  [f] must be pure (see the determinism contract above).  If
    [f] raises in any chunk, the first (lowest-index chunk) exception is
    re-raised in the caller after all chunks settle. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** List analogue of {!map_array}. *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent; the pool must not be used
    afterwards.  A no-op on size-1 pools. *)
