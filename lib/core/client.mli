(** The client party: owns time series [X], evaluates the encrypted
    dynamic-programming matrix, and drives the protocol rounds.

    The client never holds the secret key; every matrix entry it stores
    is a Paillier ciphertext (paper Figure 2).  It learns the final
    distance only through the joint {!reveal} step. *)

open Import

type t

exception Incompatible of string
(** Raised at {!connect} when the two series cannot be compared
    (dimension mismatch) or a coordinate violates the advertised bound. *)

type distance_kind = [ `Dtw | `Dfd | `Erp | `Euclidean ]

val connect :
  ?params:Params.t ->
  ?offline:bool ->
  ?packing:bool ->
  ?query:bool ->
  ?workers:Parallel.t ->
  rng:Secure_rng.t ->
  series:Series.t ->
  max_value:int ->
  distance:distance_kind ->
  Channel.t ->
  t
(** Perform the [Hello] handshake, rebuild the server's public key,
    validate dimensions and plan the session's masking parameters
    ({!Params.plan} with the larger of the two advertised coordinate
    bounds).

    [offline] (default true) enables the offline/online encryption split:
    the client precomputes its Paillier randomness ([r^n] factors) before
    the interactive rounds ({!precompute_randomness}), so its online work
    per masked round drops to modular multiplications — the natural mode
    for the paper's weak-client setting.  Offline time is accounted
    separately in {!Cost.client_offline_seconds}.

    [packing] (default false) offers the plaintext-packing capability
    ({!Message.flag_packing}): masked candidates ride ciphertexts many
    slots at a time, collapsing the per-candidate encryption and
    decryption work.  Packed runs produce the same distances as unpacked
    ones but not the same transcript bytes; servers that do not grant
    the flag (or keys too small to fit one slot) silently fall back to
    the unpacked rounds.  Combined with [offline], the pool refill uses
    the fast subgroup noise generator when the rounds are packed
    ({!packing}), and uniform noise on a fallback, like an unpacked run.

    [workers] (default sequential) fans the client's embarrassingly
    parallel work — pool refills, cost-matrix rows, masked-candidate
    preparation — out over a Domain pool.  All randomness (rng draws and
    pool pops) is consumed sequentially before each fan-out, so a seeded
    session produces bit-identical transcripts at any pool size.

    [query] (default false) offers the catalog capability
    ({!Message.flag_catalog}): catalog enumeration, pruning-sketch and
    verdict rounds for 1-vs-N search ({!Query}).  Off by default so
    pairwise sessions keep their exact historical transcripts.
    @raise Channel.Protocol_error when the server answers the one
    [Hello] with an error
    @raise Incompatible on dimension mismatch
    @raise Params.Insecure when no safe [γ] exists for the negotiated
    key and series sizes. *)

val precompute_randomness : t -> int -> unit
(** Refill the randomness pool with [count] factors (no-op when [offline]
    is false; the protocol then pays fresh exponentiations online).  The
    DP engine calls this with the exact number of encryptions the run
    will need. *)

val packing : t -> bool
(** Whether the packed profile is active for this session: offered at
    {!connect}, granted by the server, and the key fits at least one
    slot. *)

val round_randomness : t -> int array -> int
(** Pool draws one protocol round will consume, given the input count of
    each masked instance in the round — [Σ (n_i + k - 1)] offset
    encryptions in the default profile, the resulting packed-ciphertext
    count in the packed one.  The DP engine sums this over its planned
    rounds to provision {!precompute_randomness} exactly. *)

val session : t -> Params.session
val cost : t -> Cost.t

val stats : t -> Stats.t
(** Wire accounting of the underlying channel (live, cumulative) — the
    "actual" side of the {!Ledger} predicted-vs-actual check. *)

val channel : t -> Channel.t
(** The underlying request/reply channel.  Exposed so drivers above the
    client (e.g. the catalog query engine) can install per-operation
    wall budgets with [Channel.set_budget]; everything else should go
    through the typed operations on [t]. *)

val params : t -> Params.t


val server_length : t -> int
(** Length of the server's {e active} record (changes on
    {!select_record}). *)

val client_length : t -> int

val max_value : t -> int
(** The negotiated coordinate bound [V] (the larger of the two parties'
    advertised bounds); every coordinate of either series lies in
    [\[0, V\]].  The pruning round's public shift is [w_s * V]. *)

val require_plan : t -> distance_kind -> unit
(** @raise Invalid_argument when the session was planned for a different
    distance kind.  Every secure-distance driver calls this first. *)

val show_kind : distance_kind -> string
(** The kind as its constructor ([`Dtw] ...), for error messages. *)

val client_element : t -> int -> int array
(** The client's own element [x_i] (it owns this data; drivers use it for
    client-local plaintext costs such as ERP's deletion penalties). *)

(** {1 Similarity search over server databases}

    When the server holds several records (see {!Server.create_db}), the
    client can enumerate them and switch the active one; each switch
    re-plans the masking parameters for the new matrix size.  {!Query}
    builds nearest-neighbour queries on top of this. *)

val catalog : t -> int array
(** Lengths of every server record (fetched once, then cached). *)

val select_record : t -> int -> unit
(** Make record [i] the active series for subsequent protocol runs.
    @raise Invalid_argument when [i] is outside the catalog. *)

(** {1 Catalog queries (1-vs-N extension)}

    The privacy-preserving pruning primitives {!Query} is built from.
    All of them require the catalog capability (offer [~query:true] at
    {!connect} to a granting server; check {!catalog_capable}) and raise
    {!Channel.Protocol_error} without it. *)

val catalog_capable : t -> bool
(** Whether the server granted {!Message.flag_catalog}. *)

val catalog_list : t -> string array * int array
(** Enumerate the server's records: ids and lengths, positionally
    aligned; the position is the index used by {!query_submit} and
    {!select_record}. *)

val query_submit :
  t ->
  segments:int ->
  band:int option ->
  indices:int array ->
  (Paillier.ciphertext array * Paillier.ciphertext array) array
(** Open a pruning round: for each candidate index, the server's
    encrypted per-segment coupling-window extremes [(lo, hi)], each
    [segments * dimension] ciphertexts in segment-major dimension-minor
    order ({!Lower_bound.segment_bounds}).  Timed as phase 1. *)

val verdict_round :
  t -> bound:Bigint.t -> Paillier.ciphertext array -> bool array option
(** Blinded sign test.  Input ciphertexts hold signed threshold
    differences (centered residues, [|p| < bound], negative = the
    candidate survives); each is multiplicatively blinded as
    [Enc(ρ·p + μ)] with fresh [ρ, μ] before the server decrypts and
    answers only the signs.  Returns [None] — without any network
    traffic — when the modulus leaves fewer than 16 bits for [ρ];
    callers then keep every candidate.  Timed as phase 2. *)

val plan_aux_session : t -> value_bound:Bigint.t -> Params.session
(** Masking parameters for an auxiliary round whose plaintexts are
    bounded by [value_bound] instead of a DP-matrix bound
    ({!Params.plan_bound} against the session key). *)

val with_session : t -> Params.session -> (unit -> 'a) -> 'a
(** Run [f] with the active masking session swapped — {!extremes} and
    the packing geometry both follow.  The original session is restored
    on any exit. *)

(** {1 Phase 1} *)

type phase1_data = {
  server_sumsq : Paillier.ciphertext array;  (** [Enc(Σ_l y_jl²)] *)
  server_coords : Paillier.ciphertext array array;  (** [Enc(y_jl)] *)
}

val fetch_phase1 : t -> phase1_data
(** One-way transfer of the encrypted active record (Section 3.2).
    Timed as phase 1. *)

val cost_matrix_of : t -> phase1_data -> Paillier.ciphertext array array
(** Evaluate [Enc(δ²(x_i, y_j))] for every pair (Eq. 4) — [m × n]
    ciphertexts.  Timed as phase 1. *)

val fetch_cost_matrix : t -> Paillier.ciphertext array array
(** [fetch_phase1] followed by [cost_matrix_of]. *)

val gap_costs_of : t -> phase1_data -> gap:int array -> Paillier.ciphertext array
(** [Enc(δ²(y_j, gap))] for every server element, for a public gap
    element — derived homomorphically from the phase-1 data with no extra
    communication.  Secure ERP uses this for its deletion penalties.
    @raise Invalid_argument on dimension mismatch or a gap coordinate
    outside the negotiated bound. *)

(** {1 Phases 2 and 3} *)

val extremes :
  t ->
  extreme:[ `Min | `Max ] ->
  single:bool ->
  Paillier.ciphertext array array ->
  Paillier.ciphertext array
(** The masked-extreme round: the encrypted minimum (phase 2,
    Section 5.1) or maximum (phase 3, Section 6) of every instance, in
    instance order, in {e one} round trip.  Each instance of [n] inputs
    becomes [n + k - 1] candidates — the inputs masked by the pivot
    offset plus [k - 1] decoys, shuffled — that the server decrypts,
    compares and answers with a fresh encryption of the extreme; the
    reply is unmasked homomorphically.

    [single] asks for the paper's one-instance frame
    ([Min_request]/[Max_request]); otherwise the instances share one
    batch frame (the wavefront extension), which masks each instance
    exactly as [single] would, so the leakage profile is identical while
    the round count drops from one per cell to one per step.  In the
    packed profile ({!packing}) both ride one packed frame.  No
    instances means no round; timed as phase 2 ([`Min]) or 3 ([`Max]).
    @raise Invalid_argument when [single] is given other than one
    instance. *)

(** {1 Local ciphertext arithmetic} *)

val add : t -> Paillier.ciphertext -> Paillier.ciphertext -> Paillier.ciphertext
(** Homomorphic addition (DTW cell assembly), counted in the client's
    operation tally. *)

val add_plain : t -> Paillier.ciphertext -> int -> Paillier.ciphertext
(** Homomorphic addition of a client-known constant (ERP uses this for
    the [δ²(x_i, gap)] penalties). *)

val add_plain_big : t -> Paillier.ciphertext -> Bigint.t -> Paillier.ciphertext
(** {!add_plain} for bigint constants (negative values are reduced
    mod n — the catalog pruning round subtracts its public shift this
    way). *)

val scalar_mul : t -> Paillier.ciphertext -> Bigint.t -> Paillier.ciphertext
(** Homomorphic scalar multiplication, counted in the client's tally. *)

val encrypt_constant : t -> int -> Paillier.ciphertext
(** Encrypt a client-known value (pooled).  ERP border cells use this. *)

(** {1 Completion} *)

val reveal : t -> Paillier.ciphertext -> Bigint.t
(** Send the final ciphertext for decryption; both parties learn the
    plaintext (the only value the protocol discloses). *)

val finish : t -> unit
(** Close the channel ([Bye]). *)
