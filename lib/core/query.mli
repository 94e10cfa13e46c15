(** Secure 1-vs-N catalog search: query-centric entry points over a
    server-side series store.

    Where {!Protocol.run} compares one client series against one server
    series, a query compares it against {e every} record of a server
    catalog — with a privacy-preserving pruning stage so most candidates
    never pay the quadratic exact protocol:

    + {b Stage 1 (pruning).}  For each candidate of the query's length,
      the server ships an encrypted per-segment sketch of the record's
      coupling-window extremes ({!Lower_bound.segment_bounds}).  The
      client assembles, per segment and dimension, a three-way secure
      maximum [max(S_x - w*Hi, w*Lo - S_x, 0)] (shifted to stay
      non-negative), sums the maxima homomorphically into the encrypted
      gap statistic [Enc(G)] ({!Lower_bound.gap_sum} under encryption),
      and a blinded sign test against the threshold discards candidates
      with [G >= tau_G + 1] where [tau_G = isqrt(c_f * tau)].  Since the
      true squared distance satisfies [D >= G^2 / c_f] (with
      [c_f = d*m] for DTW / banded DTW / Euclidean and [(d*m)^2] for
      DFD), a discarded candidate provably has [D > tau]: pruning never
      changes the result ({e no false dismissals}).
    + {b Stage 2 (exact).}  Survivors — plus every candidate the bound
      does not cover (ERP, length mismatches) — run the exact secure
      protocol of the query's {!Protocol.spec}, one
      {!Client.select_record} switch per candidate.

    The leakage of the extra stage is one survive/discard bit per
    candidate on the server side and nothing on the client side beyond
    the exactly-evaluated distances; see SECURITY.md for the analysis
    and PROTOCOL.md section 12 for the wire messages.

    Requires a catalog-capable session: connect with [~query:true]
    ({!Client.connect}) to a server that grants
    {!Message.flag_catalog}.  The convenience wrappers {!run_top_k} and
    {!run_within} stand up both parties in-process, like
    {!Protocol.run}. *)

open Import

type hit = {
  index : int;  (** catalog position, as used by {!Client.select_record} *)
  id : string;  (** the record's catalog id *)
  distance : Bigint.t;  (** exact secure distance (squared, as always) *)
}

type incomplete_reason =
  | Deadline  (** a wall budget ({!top_k}'s [?budget] /
                  [?candidate_budget_s]) or frame deadline expired *)
  | Retries  (** the transport retry budget ran out (connection lost,
                 server busy, circuit open, ...) *)
  | Server_error of string  (** the server answered with an error *)

val reason_to_string : incomplete_reason -> string
(** Stable lowercase rendering ("deadline", "retries",
    "server-error: <msg>") for logs and CLI summaries. *)

type incomplete = {
  index : int;  (** catalog position of the skipped candidate *)
  id : string;  (** its catalog id *)
  reason : incomplete_reason;
}

type report = {
  hits : hit array;  (** ascending distance, ties by index *)
  total : int;  (** catalog size *)
  evaluated : int;  (** exact protocol runs paid (including failed
                        attempts recorded in [incomplete]) *)
  pruned : int;  (** candidates discarded by the secure lower bound *)
  incomplete : incomplete array;
      (** candidates that could {e not} be resolved — skipped on a
          transport failure or an expired budget, ascending index.
          Empty on a fully-successful query.  [hits] is exactly the
          result of the same query over the catalog {e minus} these
          candidates; callers needing all-or-nothing semantics must
          check this field. *)
}

val top_k :
  ?segments:int ->
  ?budget:Ppst_transport.Retry.Budget.t ->
  ?candidate_budget_s:float ->
  spec:Protocol.spec ->
  k:int ->
  Client.t ->
  report
(** The [k] nearest catalog records to the client's series under the
    spec's distance.  Exact protocol runs are paid for every
    non-prunable candidate, the first seeds needed to establish the
    threshold, and every pruning survivor; [hits] is bit-identical to
    the exhaustive {!scan}'s [k] best (ascending distance, ties by index).
    [segments] (default [min 8 m]) sizes the sketch; more segments
    prune harder but cost more per candidate.

    {b Degraded mode.}  A candidate whose exact run fails on a
    transport-class error (lost connection after the retry budget,
    server error reply, expired deadline) is skipped and recorded in
    [incomplete] instead of failing the query; a failed stage-1 pruning
    round degrades to the exhaustive scan (sound — pruning is only an
    optimisation).  [?budget] is the wall budget for the whole query: it
    is installed on the client's channel for the duration (bounding
    every round and recovery, see {!Channel.set_budget}) and once it
    expires the remaining candidates are marked [Deadline] without
    further wire traffic.  [?candidate_budget_s] bounds each single
    candidate's exact run (clamped to the remaining whole-query budget
    when both are set), so one black-holed candidate cannot starve the
    rest.

    @raise Invalid_argument if [k <= 0], [segments] is outside
    [\[1, m\]], [candidate_budget_s <= 0], or the spec is inconsistent
    ({!Protocol.run}'s rules).
    @raise Channel.Protocol_error without the catalog capability. *)

val within :
  ?segments:int ->
  ?budget:Ppst_transport.Retry.Budget.t ->
  ?candidate_budget_s:float ->
  spec:Protocol.spec ->
  radius:Bigint.t ->
  Client.t ->
  report
(** Every catalog record within squared distance [radius] of the
    client's series.  One pruning round over all equal-length
    candidates with [tau = radius], then exact runs on the rest.
    Degraded mode ([?budget], [?candidate_budget_s], [incomplete]) as
    {!top_k}.
    @raise Invalid_argument on a negative radius (and as {!top_k}). *)

val scan : spec:Protocol.spec -> Client.t -> report
(** The unpruned exhaustive mode: every catalog record runs the exact
    protocol, in catalog order, and [hits] lists all of them (ascending
    distance, ties by index) with [pruned = 0].  It reveals every
    record's distance — the baseline the pruned modes are measured
    against.  Degraded mode as {!top_k}, under the channel's own
    budget ({!Channel.set_budget}).
    @raise Invalid_argument as {!top_k}.
    @raise Channel.Protocol_error without the catalog capability. *)

(** {1 In-process conveniences} *)

val run_top_k :
  spec:Protocol.spec ->
  ?seed:string ->
  ?max_value:int ->
  k:int ->
  x:Series.t ->
  store:Store.t ->
  unit ->
  report * Stats.t
(** Stand up a store-backed {!Server} on a loopback channel, connect a
    catalog-capable client for [x], and run {!top_k}.  [seed] as
    {!Protocol.run}; [max_value] defaults to the larger of the two
    sides' actual coordinate bounds.  Both parties use the default
    {!Params} and one job.  Also returns the channel's wire
    accounting. *)

val run_within :
  spec:Protocol.spec ->
  ?segments:int ->
  ?seed:string ->
  radius:Bigint.t ->
  x:Series.t ->
  store:Store.t ->
  unit ->
  report * Stats.t
