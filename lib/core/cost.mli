(** Per-party, per-phase accounting of cryptographic work and wall-clock
    time — the measurement harness behind the paper's Figures 5–11.

    Phase numbering follows the paper: phase 1 computes the encrypted
    squared Euclidean distances, phase 2 finds encrypted minima, phase 3
    (DFD only) finds encrypted maxima. *)

type phase = Phase1 | Phase2 | Phase3

type ops = {
  mutable encryptions : int;
  mutable decryptions : int;
  mutable homomorphic : int;  (** ciphertext additions / scalar powers *)
}

type t

val create : unit -> t
val client_ops : t -> ops
val server_ops : t -> ops

val add_client_time : t -> phase -> float -> unit
val add_server_time : t -> phase -> float -> unit

val add_client_offline : t -> float -> unit
(** Record offline precomputation time (the client's randomness-pool
    refills — work done before or outside the interactive phases). *)

val client_seconds : t -> phase -> float
val server_seconds : t -> phase -> float

val client_offline_seconds : t -> float

val client_total_seconds : t -> float
(** Online client time (sum over phases; excludes offline). *)

val server_total_seconds : t -> float

val total_seconds : t -> float
(** Everything: both parties' online time plus the client's offline
    precomputation. *)

val set_jobs : t -> int -> unit
(** Record the worker-pool size the run executed with (default 1). *)

val jobs : t -> int

val set_pool_misses : t -> int -> unit
(** Record the client's randomness-pool miss count — encryptions that
    paid an {e online} [r^n] exponentiation because the offline pool was
    empty.  A correctly provisioned offline run reports 0; the
    offline/online cost-split experiments assert this. *)

val pool_misses : t -> int

val pp : Format.formatter -> t -> unit
