(** Security parameters of the masking protocols (paper Section 5.3).

    Notation (paper): matrix plaintexts lie in [(2^β, 2^(β+1)\]], random
    offsets in [(2^γ, 2^(γ+1)\]], the random set has [k = 2^α] values.
    The constraints enforced here:

    - [0 < γ - β < α] — offsets dense enough that candidate gaps hide the
      real values, yet spread over a range larger than the plaintexts;
    - [β + γ < |P|] — no wrap-around in the Paillier plaintext space
      (checked precisely against the actual modulus and value bound);
    - [k >= 4] — below that no [γ] satisfies the first constraint;
    - [2^γ >= k] — the offset range holds [k] distinct offsets ([β] is
      raised for tiny value bounds). *)

open Import

type t = {
  key_bits : int;  (** Paillier modulus size; paper experiments use 64 *)
  k : int;  (** random-set size; paper default 10, swept 10–50 in Fig. 11 *)
  gamma_slack : int;  (** [γ - β]; must satisfy [0 < slack < log2 k] *)
}

val default : t
(** [{ key_bits = 64; k = 10; gamma_slack = 2 }] — the paper's
    experimental configuration. *)

val make : ?key_bits:int -> ?k:int -> ?gamma_slack:int -> unit -> t

exception Insecure of string
(** Raised when a configuration violates a Section 5.3 constraint. *)

type session = {
  params : t;
  beta : int;  (** matrix values are < 2^(β+1) *)
  gamma : int;  (** offsets drawn from (2^γ, 2^(γ+1)] *)
  value_bound : Bigint.t;  (** strict upper bound on any matrix plaintext *)
  offset_lo : Bigint.t;  (** 2^γ + 1 *)
  offset_hi : Bigint.t;  (** 2^(γ+1) *)
}

val plan :
  t ->
  max_value:int ->
  dimension:int ->
  client_length:int ->
  server_length:int ->
  modulus:Bigint.t ->
  distance:[ `Dtw | `Dfd | `Erp | `Euclidean ] ->
  session
(** Derive and validate per-session constants.  [max_value] bounds every
    coordinate of both series.  The matrix-value bound depends on the
    distance: [(m + n - 1) * d * max_value²] for DTW (longest warping
    path), [d * max_value²] for DFD (max of single costs),
    [(m + n) * d * max_value²] for ERP (matches plus gap penalties), and
    [min(m, n) * d * max_value²] for plain/windowed Euclidean sums.
    @raise Insecure when no valid [γ] exists or the masked candidates
    could wrap around the modulus. *)

val plan_bound : t -> value_bound:Bigint.t -> modulus:Bigint.t -> session
(** [plan_bound] derives a session directly from an explicit strict upper
    bound on the masked plaintexts, bypassing the distance-specific bound
    computation of {!plan}.  Used by auxiliary protocols (the catalog
    pruning round) whose plaintexts are not DP-matrix entries.
    @raise Insecure under the same conditions as {!plan}. *)

val alpha : t -> int
(** [⌊log2 k⌋]. *)

val pp_session : Format.formatter -> session -> unit
