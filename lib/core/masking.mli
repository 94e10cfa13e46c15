(** Random-offset candidate construction — the client side of the
    secure-minimum (paper Section 5.1) and secure-maximum (Section 6)
    subprotocols.

    For a minimum over ciphertexts [e_1..e_j] the client draws a random
    set [R = {r_min < r_2 < ... < r_k}] from [(2^γ, 2^(γ+1)]], builds
    the candidate multiset

    [{Enc(a_i + r_min)} ∪ {Enc(x_t + r_t)}]   (x_t drawn from the inputs)

    with every offset freshly encrypted (re-randomizing each candidate so
    the holder of the secret key cannot link candidates to ciphertexts it
    has seen before), shuffles it, and remembers [r_min] to unmask the
    reply.  The maximum variant mirrors this with [r_max] the unique
    largest offset. *)

open Import

type prepared = {
  candidates : Paillier.ciphertext array;  (** shuffled, ready to send *)
  unmask : Bigint.t;  (** [r_min] (or [r_max]) to subtract from the reply *)
}

val prepare_min :
  ?encrypt:(Bigint.t -> Paillier.ciphertext) ->
  pk:Paillier.public_key ->
  rng:Ppst_rng.Secure_rng.t ->
  session:Params.session ->
  Paillier.ciphertext array ->
  prepared
(** [prepare_min ~pk ~rng ~session inputs] builds [k + length inputs]
    … candidates ([k - 1] decoys + the masked inputs) for the secure
    minimum of [inputs].  With the paper's three DP predecessors this is
    [k + 2] ciphertexts.
    @raise Invalid_argument when [inputs] is empty. *)

val prepare_max :
  ?encrypt:(Bigint.t -> Paillier.ciphertext) ->
  pk:Paillier.public_key ->
  rng:Ppst_rng.Secure_rng.t ->
  session:Params.session ->
  Paillier.ciphertext array ->
  prepared
(** Mirror of {!prepare_min} for the maximum ([k + 1] candidates for the
    DFD case of two inputs).

    [?encrypt] overrides how offsets are encrypted (default
    [Paillier.encrypt pk rng]); the client passes its pooled offline
    encryptor here. *)

val unmask_min : pk:Paillier.public_key -> prepared -> Paillier.ciphertext -> Paillier.ciphertext
(** [unmask_min ~pk prepared reply] = [Enc(decrypt reply - r_min)]. *)

val unmask_max : pk:Paillier.public_key -> prepared -> Paillier.ciphertext -> Paillier.ciphertext

val draw_offsets :
  rng:Ppst_rng.Secure_rng.t -> session:Params.session -> count:int -> Bigint.t array
(** [count] distinct offsets from [(2^γ, 2^(γ+1)]], sorted ascending.
    Exposed for the leakage simulations and tests. *)

(** {1 Plan / apply split (parallel execution support)}

    {!prepare_min}/{!prepare_max} = {!plan} followed by {!apply_plan}
    with a fold that adds a fresh encryption of each offset.  [plan]
    performs {e every} rng draw (offsets, decoy source indices, the
    shuffle permutation); [apply_plan] is pure given its [fold], calling
    it in a fixed order (the pivot offset once per input, in input
    order, then each decoy offset).  The client plans all instances of a
    round sequentially, acquires encryption randomness sequentially, and
    applies the plans on a Domain pool — seeded transcripts are
    therefore identical at any pool size. *)

type plan = {
  pivot : Bigint.t;  (** [r_min] (or [r_max]) *)
  decoy_offsets : Bigint.t array;  (** the [k - 1] non-pivot offsets *)
  decoy_sources : int array;  (** input index each decoy masks *)
  perm : int array;  (** shuffled identity over all candidates *)
}

val plan :
  rng:Ppst_rng.Secure_rng.t ->
  session:Params.session ->
  extreme:[ `Min | `Max ] ->
  n_inputs:int ->
  plan
(** @raise Invalid_argument when [n_inputs] is 0. *)

val plan_encryptions : plan -> n_inputs:int -> int
(** Number of [fold] calls {!apply_plan} will make
    ([n_inputs + k - 1]). *)

val apply_plan :
  fold:(Paillier.ciphertext -> Bigint.t -> Paillier.ciphertext) ->
  plan ->
  Paillier.ciphertext array ->
  prepared
(** [fold c r] masks source ciphertext [c] with offset [r].  Folding in
    a freshly encrypted offset re-randomizes every candidate.  Folding
    it in as a plaintext constant ([Paillier.add_plain]) adds no noise:
    the packed path does that and re-randomizes each {e packed}
    ciphertext with one pooled [r^n] factor instead — never send such
    candidates unpacked. *)

val unmask : pk:Paillier.public_key -> prepared -> Paillier.ciphertext -> Paillier.ciphertext
(** {!unmask_min} and {!unmask_max} are this one function. *)
