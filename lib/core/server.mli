(** The server party: owns time series [Y] and the Paillier secret key,
    answers protocol requests (paper Sections 3.2, 5.1, 6).

    The server is deliberately {e stateless across requests} beyond the
    key and series: every [Min_request]/[Max_request] is answered by
    decrypt-compare-re-encrypt with no memory of previous cells, exactly
    as the paper's protocol prescribes.  Re-encryption (rather than
    echoing a received ciphertext) is what hides the optimal warping path
    (Section 5.5). *)

open Import

type t

val create :
  ?params:Params.t ->
  ?decryption:[ `Standard | `Crt ] ->
  ?workers:Parallel.t ->
  ?max_reveals:int ->
  rng:Secure_rng.t ->
  series:Series.t ->
  max_value:int ->
  unit ->
  t
(** Generate a key pair and stand up a server for [series].  [max_value]
    is the public coordinate bound advertised in [Welcome]; every
    coordinate of [series] must lie in [\[0, max_value\]].

    [decryption] selects the decryption path: [`Standard] (default)
    matches the paper's cost profile, where decryption is the expensive
    server-side operation; [`Crt] enables the ~2x-faster CRT decryption —
    an optimization beyond the paper, benchmarked in the ablation suite.
    Both give the same plaintexts, so replies do not depend on it.  It
    stays an option because its callers want different values: the
    paper's figures in [bench/main.ml] run the standard decryption,
    while [ppst_server] and the benchmark ladder pass [`Crt].

    [workers] (default sequential) fans candidate decryption and phase-1
    encryption out over a Domain pool.  Replies are bit-identical at any
    pool size: decryption is deterministic and batch encryption draws
    its randomness sequentially.

    [max_reveals] caps the number of [Reveal_request]s the server will
    answer in this session — the disclosure-control hook the paper's
    "information that is leaked if a client runs many queries" caveat
    calls for.  Further reveals get an [Error_reply].  Unlimited when
    omitted.
    @raise Invalid_argument otherwise. *)

val create_with_key :
  ?decryption:[ `Standard | `Crt ] ->
  ?workers:Parallel.t ->
  sk:Paillier.private_key ->
  rng:Secure_rng.t ->
  series:Series.t ->
  max_value:int ->
  unit ->
  t
(** Reuse an existing key (the TCP server binary loads one from disk). *)

(** {1 Multi-record databases (similarity-search extension)}

    A server may hold several records sharing one dimension and value
    bound.  The client discovers them with [Catalog_request] and switches
    the active series with [Select_request]; [Welcome] and
    [Phase1_request] always describe the active record.  This is the
    similarity-search setting of the paper's introduction (hospital ECG
    lookup): one connection, one key, many secure comparisons. *)

val create_db :
  ?params:Params.t ->
  ?decryption:[ `Standard | `Crt ] ->
  ?workers:Parallel.t ->
  ?max_reveals:int ->
  ?ids:string array ->
  rng:Secure_rng.t ->
  records:Series.t array ->
  max_value:int ->
  unit ->
  t
(** [ids] names the records for [Catalog_list_request] enumeration
    (default ["0"], ["1"], ...); must match [records] in length.
    @raise Invalid_argument on an empty record set, mixed dimensions,
    out-of-bound coordinates, or an ids length mismatch. *)

val create_db_with_key :
  ?decryption:[ `Standard | `Crt ] ->
  ?workers:Parallel.t ->
  ?max_reveals:int ->
  ?ids:string array ->
  sk:Paillier.private_key ->
  rng:Secure_rng.t ->
  records:Series.t array ->
  max_value:int ->
  unit ->
  t

val of_store : rng:Secure_rng.t -> store:Store.t -> max_value:int -> unit -> t
(** Stand up a catalog server over a {!Store} with a fresh key of the
    default {!Params} size: records and ids are the store's, in store
    order. *)

val of_store_with_key :
  ?decryption:[ `Standard | `Crt ] ->
  sk:Paillier.private_key ->
  rng:Secure_rng.t ->
  store:Store.t ->
  max_value:int ->
  unit ->
  t

val handle : t -> Message.request -> Message.reply
(** Answer one request.  Ill-formed or out-of-range requests produce
    [Error_reply], never an exception.  Partial application
    ([Server.handle server]) is the handler shape {!Channel.local} and
    {!Server_loop} expect.  (A [handler] alias used to exist; it was the
    same function and is gone.) *)

val public_key : t -> Paillier.public_key
val private_key : t -> Paillier.private_key
val ops : t -> Cost.ops
(** Cryptographic operation counters (decryptions dominate, per the
    paper's Section 5.2 analysis).  Every encryption and decryption is
    also added to the process-wide [server.crypto.encryptions] /
    [server.crypto.decryptions] counters of {!Ppst_telemetry.Metrics};
    a restored session's counters ({!restore_state}) are not, since the
    process that spooled them already counted them. *)

val reveal_count : t -> int
(** Number of [Reveal_request]s answered — observability hook: each
    reveal discloses one plaintext to both parties, so callers enforcing
    a one-result-per-session policy can check this. *)

val export_state : t -> string
(** Serialize the per-session protocol state (selected record index,
    reveal count, crypto-op counters) for cross-worker failover.  The
    key, records and worker pool are configuration the restoring worker
    already owns; the rng stream position is deliberately excluded —
    server-side randomness cancels at decryption, so a restored server's
    replies decrypt to the same plaintexts and every revealed distance
    is bit-identical (see SECURITY.md). *)

val restore_state : t -> string -> unit
(** Apply {!export_state} output to a freshly built server over the same
    records.  @raise Ppst_transport.Wire.Malformed on a corrupt blob or
    an out-of-range record index. *)
