(** Per-session resource budgets, enforced {e before} any Paillier work.

    The server's hot path is the cryptography: one hostile
    [Batch_min_request] can demand millions of decryptions.  Admission
    control prices every request in public units — DP-matrix cells,
    series length, dimension, raw frame bytes — and rejects over-budget
    sessions with the typed {!Message.reply.Quota_exceeded} wire reply
    while the request is still plaintext bookkeeping.

    Every quantity examined here is public in the paper's model
    (Section 2: matrix dimensions are known to both parties), so
    rejections add zero leakage; see SECURITY.md. *)

type limits = {
  max_cells : int option;
      (** cap on DP-matrix cells = extreme-selection instances per
          session, counted separately for min and max kinds (DFD spends
          one of each per cell).  Also caps [declared m * server n] at
          Hello time when the client ships a spec. *)
  max_series_len : int option;  (** cap on the declared client series length *)
  max_dim : int option;  (** cap on the declared point dimension *)
  max_session_bytes : int option;  (** cap on total request-frame bytes *)
  max_session_frames : int option;  (** cap on total request frames *)
}

val unlimited : limits
(** All budgets off — admission always grants.  The default. *)

type verdict =
  | Admit
  | Reject of { quota : string; limit : int; requested : int }
      (** [quota] is a static budget name ("cells", "series-len",
          "dim", "bytes", "frames"); [limit]/[requested] the configured
          cap and the offending size — all public. *)

type t
(** One session's ledger.  Not thread-safe: sessions are served by a
    single thread ({!Server_loop} is thread-per-session). *)

val create : limits -> t

val declare : t -> spec:Message.spec -> server_len:int -> verdict
(** Admission at [Hello] time: checks the declared series length and
    dimension against their caps and [spec.series_len * server_len]
    against the cell budget.  On [Admit] the declared length is
    recorded and later {!charge_cells} calls are additionally checked
    against the declared [m * n] — a client cannot under-declare at
    Hello and over-consume later. *)

val reselect : t -> unit
(** Reset the cell ledger after [Select_request]: a catalog scan
    evaluates one matrix per record, not one cumulative matrix.  Also
    closes any open catalog-query allowance ({!declare_query}) — the
    per-survivor exact stage is billed per record again. *)

val declare_query : t -> candidates:int -> segments:int -> verdict
(** Admission at [Query_submit] time: a catalog pruning round over
    [candidates] records and [segments] query segments spends
    [candidates * (segments * dim + 1)] cells (one extreme instance per
    candidate-segment-dimension plus one verdict decryption per
    candidate, with [dim] from the Hello spec, defaulting to 1).  On
    [Admit] the cell ledger restarts and that total becomes the open
    allowance later {!charge_cells} calls are held to, replacing the
    pairwise declared [m * n] budget for the duration of the query. *)

val charge_frame : t -> bytes:int -> verdict
(** Charge one request frame of [bytes] against the byte/frame budgets.
    Called before the codec runs. *)

val charge_cells :
  t -> kind:[ `Min | `Max ] -> count:int -> server_len:int -> verdict
(** Charge [count] extreme-selection instances of [kind] against the
    cell budget (and the declared budget, if a spec was shipped).
    Called after decode, before any decryption. *)

val cells_of_request : Message.request -> ([ `Min | `Max ] * int) option
(** The extreme-selection instances a decoded request will spend, or
    [None] for requests that cost no crypto. *)

val to_reply : verdict -> Message.reply option
(** [Reject] as the wire reply; [None] for [Admit]. *)

val export : t -> string
(** Serialize the mutable ledger (declarations and spends, not the
    limits) for cross-worker session failover.  Everything in the blob
    is a public quantity the client already shipped or a count of its
    own requests — externalizing it adds no leakage (SECURITY.md). *)

val import : limits -> string -> t
(** Rebuild a ledger from {!export} output under the restoring server's
    own [limits] (budgets are configuration, not session state).
    @raise Wire.Malformed on a corrupt blob. *)
