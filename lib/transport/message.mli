(** Protocol messages exchanged between client (series X owner, ciphertext
    evaluator) and server (series Y owner, secret-key holder).

    Ciphertexts travel as raw [Bigint.t] residues mod [n^2]; the protocol
    layer re-wraps them against the session's public key, validating the
    range on receipt. *)

open Ppst_bigint

type spec = { series_len : int; dimension : int }
(** Resource declaration a client may attach to [Hello]: the length and
    dimension of the series it intends to evaluate.  Both quantities are
    public in the paper's model (Section 2), so declaring them up front
    adds zero leakage while letting the server run its admission checks
    (cell budget [m*n], length and dimension caps — {!Admission}) before
    a single Paillier operation is spent on the session. *)

type request =
  | Hello of { flags : int; spec : spec option }
      (** Session opening: asks for the public key and the server
          series' public metadata (length, dimension, value bound —
          the matrix dimensions are public in the paper's model).
          [flags] offers transport capabilities ({!flag_crc32},
          {!flag_resume}); [0] encodes byte-identically to the PR 3
          format, so old peers interop unchanged.  [spec], when
          present (marked on the wire by {!flag_spec}, which the
          encoder derives automatically), declares the client's series
          size for admission control; servers that predate the
          extension answer with [Error_reply] and the client falls
          back to a bare [Hello]. *)
  | Phase1_request
      (** Ask for the encrypted server series (paper Section 3.2: the
          one-way transfer of [Enc(Σq²)] and each [Enc(q_i)]). *)
  | Min_request of Bigint.t array
      (** Phase 2: masked candidates; the server must reply with a fresh
          encryption of the minimum plaintext. *)
  | Max_request of Bigint.t array
      (** Phase 3 (DFD only): masked candidates; reply encrypts the
          maximum. *)
  | Reveal_request of Bigint.t
      (** Final step: ciphertext of the result for joint disclosure. *)
  | Catalog_request
      (** Similarity-search extension: ask for the lengths of every record
          the server holds (dimension and value bound are in [Welcome]). *)
  | Select_request of int
      (** Similarity-search extension: make record [i] the active series
          for subsequent [Phase1_request]s. *)
  | Batch_min_request of Bigint.t array array
      (** Wavefront extension: several independent masked-minimum
          instances (one per DP anti-diagonal cell) answered in a single
          round trip.  Each inner array is one candidate set. *)
  | Batch_max_request of Bigint.t array array
  | Packed_min_request of { slot_bits : int; counts : int array; packed : Bigint.t array }
      (** Packing extension (tag [0x0E], requires granted
          {!flag_packing}): the masked candidate sets of many
          minimum-selection instances, concatenated and packed
          [slot_bits] bits per plaintext slot into as few ciphertexts
          as the modulus can hold.  [counts.(i)] is the candidate
          count of instance [i]; the flattened sequence fills each
          ciphertext of [packed] in order.  Answered by
          [Batch_cipher_reply] with one fresh encryption of the
          extreme per instance, in request order. *)
  | Packed_max_request of { slot_bits : int; counts : int array; packed : Bigint.t array }
      (** Same, selecting the maximum (tag [0x0F]). *)
  | Stats_req
      (** Observability (tag [0x0B]): ask for the server's metrics
          snapshot.  Answered by {!Server_loop} itself — even at capacity
          — so an operator can inspect a running daemon without consuming
          a session slot; in-process servers answer with the process-wide
          {!Ppst_telemetry.Metrics} exposition. *)
  | Bye
  | Resume of { token : string; client_rounds : int; flags : int }
      (** Reconnect (tag [0x0C], always the first frame of its
          connection): present the token from [Welcome] and the number
          of reply frames this client has fully received
          ([client_rounds]), re-offering capability [flags] for the new
          connection.  Answered by [Resume_ack] or [Resume_reject]. *)
  | Health_req
      (** Readiness probe (tag [0x0D]): ask whether the server is
          accepting new sessions.  Like [Stats_req] it is answered by
          {!Server_loop} itself, without consuming a session slot, and
          is served even at capacity, under load shed and on
          rate-limited connections — an operator or load balancer can
          always tell a saturated server from a dead one. *)
  | Catalog_list_request
      (** Catalog extension (tag [0x10], requires granted
          {!flag_catalog}): enumerate the server's record store — ids
          and lengths.  Both are public metadata in the catalog model
          (the store admits by id; lengths were already disclosed by
          [Catalog_reply]). *)
  | Query_submit of { segments : int; band : int option; indices : int array }
      (** Catalog extension (tag [0x11]): open a pruning round over the
          records at [indices].  The server answers with a
          [Query_sketch]: for each candidate, encryptions of its
          per-segment, per-dimension coupling-window extremes
          ([Lower_bound.segment_bounds ~segments ~band]), from which
          the client assembles the secure lower-bound statistic without
          the server ever seeing the query.  [band = None] means the
          unbanded coupling window (whole series); [Some 0] lockstep
          (Euclidean). *)
  | Verdict_request of Bigint.t array
      (** Catalog extension (tag [0x12]): one multiplicatively blinded
          threshold difference [Enc(ρ·(G - τ_G - 1) + μ)] per pending
          candidate.  The server decrypts and reports only the sign of
          each plaintext ([Verdict_reply]) — the magnitude is blinded by
          [ρ, μ], so the server learns one bit per candidate: prune or
          survive (SECURITY.md). *)
  | Metrics_req
      (** Observability extension (tag [0x13], requires granted
          {!flag_metrics}): ask for the OpenMetrics text page — the full
          registry plus windowed rollups, exactly what the sidecar HTTP
          endpoint serves.  Like [Stats_req]/[Health_req] it is also
          answered on probe connections at capacity, without consuming a
          session slot. *)

type phase1_element = {
  sum_sq : Bigint.t;  (** [Enc(Σ_l y_{j,l}²)] *)
  coords : Bigint.t array;  (** [Enc(y_{j,l})] for each dimension [l] *)
}

type sketch = {
  lo : Bigint.t array;
      (** [Enc(Lo_{s,l})] — segment-major, dimension-minor flattening of
          the candidate's per-segment window minima *)
  hi : Bigint.t array;  (** [Enc(Hi_{s,l})], same layout *)
}
(** Encrypted pruning sketch of one catalog candidate
    ([Lower_bound.segment_bounds] under the session key). *)

type reply =
  | Welcome of {
      n : Bigint.t;  (** Paillier modulus *)
      key_bits : int;
      series_length : int;
      dimension : int;
      max_value : int;
      flags : int;
          (** capabilities granted for this session = client offer AND
              server support; [0] omits the extension bytes entirely
              (PR 3 wire compatibility) *)
      resume_token : string;
          (** 16 random bytes from the server CSPRNG when
              {!flag_resume} is granted, [""] otherwise.  Pure
              randomness, never derived from key or protocol state
              (SECURITY.md). *)
    }
  | Phase1_reply of phase1_element array
  | Cipher_reply of Bigint.t
  | Reveal_reply of Bigint.t
  | Catalog_reply of int array  (** length of each record *)
  | Select_ack of int
  | Batch_cipher_reply of Bigint.t array
      (** One fresh encryption of the extreme per requested instance, in
          request order. *)
  | Bye_ack of { server_seconds : float }
      (** Final accounting reply: total wall-clock time the server spent
          inside its request handler this session.  A TCP server reports
          its measured total here (see {!Server_loop}); in-process
          servers send [0.] because {!Channel.local} times the handler
          itself. *)
  | Stats_reply of string
      (** Observability (tag [0x8A]): the metrics text exposition
          ({!Ppst_telemetry.Metrics.dump} format, prefixed with the
          serving loop's live session counters).  Carries only metric
          names and numbers — never protocol values. *)
  | Busy of { retry_after_s : float }
      (** Capacity rejection (tag [0x8E]): the server is at its
          concurrent-session limit.  Sent by {!Server_loop} immediately
          after accept, before any request is read, then the connection
          is closed.  [retry_after_s] is a backoff hint; clients see it
          as {!Channel.Busy}. *)
  | Error_reply of string
      (** Typed in-band failure (bad request for session state, malformed
          candidates, ...). *)
  | Resume_ack of { server_rounds : int; reply : string; flags : int }
      (** Resume accepted (tag [0x8B]).  [server_rounds] is how many
          replies the server has produced for this session; when it is
          ahead of the client's [client_rounds] (the reply to the
          in-flight request was computed but lost in transit), [reply]
          carries that last reply, re-encoded, so the client consumes it
          instead of re-sending — the round is never executed twice.
          [flags] are the capabilities in force on the new connection. *)
  | Resume_reject of { reason : string }
      (** Resume refused (tag [0x8C]): unknown, expired or evicted
          token.  The session cannot be recovered; the client must
          restart from [Hello]. *)
  | Quota_exceeded of { quota : string; limit : int; requested : int }
      (** Admission rejection (tag [0x8D]): the request would exceed a
          per-session resource budget ({!Admission}).  [quota] is a
          static budget name ("cells", "series-len", "dim", "bytes",
          "frames"), [limit] the configured cap and [requested] the
          size that tripped it — all three are public quantities, so
          the reject leaks nothing (SECURITY.md).  Unlike [Busy] it is
          not retryable: the same request will always be rejected. *)
  | Health_reply of {
      status : int;
          (** [0] ready; [1] at session capacity; [2] shedding load;
              [3] degraded — the session spool is unwritable
              (durability lost): sessions are still served but do not
              survive a worker crash until the spool recovers *)
      active : int;  (** sessions currently being served *)
      capacity : int;  (** configured concurrent-session limit *)
      retry_after_s : float;
          (** backoff hint when [status <> 0]; [0.] when ready *)
    }
      (** Readiness report (tag [0x8F]), answering [Health_req]. *)
  | Catalog_list_reply of { ids : string array; lengths : int array }
      (** Catalog enumeration (tag [0x90]); [ids.(i)] and [lengths.(i)]
          describe the same record, and the position [i] is the index
          [Query_submit]/[Select_request] refer to. *)
  | Query_sketch of sketch array
      (** Pruning sketches (tag [0x91]), one per candidate of the
          [Query_submit], in request order. *)
  | Verdict_reply of bool array
      (** Pruning verdicts (tag [0x92]), one per blinded candidate of
          the [Verdict_request], in request order: [true] = the
          candidate survives (its lower bound does not clear the
          threshold), [false] = it is pruned. *)
  | Metrics_reply of string
      (** OpenMetrics text page (tag [0x93]), answering [Metrics_req].
          Same leakage surface as [Stats_reply]: static metric names and
          aggregate numbers only ({!Ppst_telemetry.Exposition}). *)

type t = Request of request | Reply of reply

val encode : t -> string
val decode : string -> t
(** @raise Wire.Malformed on any framing or tag error. *)

val describe : t -> string
(** One-line human description for logs. *)

val values_in : t -> int
(** Number of protocol-level "values" (ciphertexts/plaintexts) carried —
    the unit the paper's communication analysis counts (Section 5.2). *)

(** {1 Wire tags}

    First byte of every encoded message (requests [0x0*], replies
    [0x8*]).  Exposed so trace tooling ([ppst_analyze trace]) can label
    the opcodes telemetry records without re-parsing frames. *)

val tag_hello : int
val tag_phase1_request : int
val tag_min_request : int
val tag_max_request : int
val tag_reveal_request : int
val tag_bye : int
val tag_catalog_request : int
val tag_select_request : int
val tag_batch_min_request : int
val tag_batch_max_request : int
val tag_stats_request : int
val tag_resume : int
val tag_health_request : int
val tag_packed_min_request : int
val tag_packed_max_request : int
val tag_catalog_list_request : int
val tag_query_submit : int
val tag_verdict_request : int
val tag_metrics_request : int
val tag_welcome : int
val tag_phase1_reply : int
val tag_cipher_reply : int
val tag_reveal_reply : int
val tag_bye_ack : int
val tag_error_reply : int
val tag_catalog_reply : int
val tag_select_ack : int
val tag_batch_cipher_reply : int
val tag_stats_reply : int
val tag_resume_ack : int
val tag_resume_reject : int
val tag_quota_exceeded : int
val tag_busy : int
val tag_health_reply : int
val tag_catalog_list_reply : int
val tag_query_sketch : int
val tag_verdict_reply : int
val tag_metrics_reply : int

(** {1 Capability flags}

    Bits of [Hello.flags] (offer) and [Welcome.flags]/[Resume_ack.flags]
    (grant). *)

val flag_crc32 : int
(** [0x01]: every subsequent frame on the connection carries a CRC-32
    trailer ({!Crc32}); a mismatch surfaces as
    {!Channel.Frame_corrupt}, never as garbage handed to the codec. *)

val flag_resume : int
(** [0x02]: the server issues a resume token and parks session state on
    disconnect ({!Resume_table}), enabling the [Resume] handshake. *)

val flag_spec : int
(** [0x04]: a resource {!spec} (series length + dimension) follows the
    flags byte in [Hello].  Derived from the [spec] field by the
    encoder — never set it by hand in [Hello.flags]. *)

val flag_packing : int
(** [0x08]: the server accepts [Packed_min_request]/[Packed_max_request]
    frames for this session.  A throughput capability only — packed
    frames carry exactly the masked quantities the unpacked frames
    would, so granting it adds zero leakage (SECURITY.md). *)

val flag_catalog : int
(** [0x10]: the server accepts [Catalog_list_request], [Query_submit]
    and [Verdict_request] frames — the 1-vs-N catalog-search extension.
    Leakage is confined to public metadata (ids, lengths) plus one
    survive/prune bit per queried candidate (SECURITY.md). *)

val flag_metrics : int
(** [0x20]: the server accepts [Metrics_req] frames for this session —
    the observability extension.  Aggregate-only surface, identical in
    kind to [Stats_req] (SECURITY.md). *)
