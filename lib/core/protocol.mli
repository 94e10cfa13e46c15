(** One-call entry points: run a complete secure-distance session with
    both parties in this process, over the accounted loopback channel.

    This is the quickest way to use the library:

    {[
      let x = Series.of_list [3; 4; 5; 4; 6; 7]
      and y = Series.of_list [2; 4; 6; 5; 7] in
      let r = Protocol.run ~spec:(Protocol.spec `Dtw) ~x ~y () in
      Printf.printf "secure DTW distance = %d\n" (Bigint.to_int_exn r.distance)
    ]}

    {!run} is the single entry point; the distance, the optional
    Sakoe–Chiba band, and the round-trip strategy are picked by a
    {!spec} value, which maps onto the {!Secure_dp} engine's rule,
    domain and schedule.  For 1-vs-N search over a server catalog, see
    {!Query} — it reuses the same [spec].

    For a real two-machine deployment use the [bin/ppst_server] and
    [bin/ppst_client] executables (TCP), which drive exactly the same
    {!Client}/{!Server} code. *)

open Import

type result = {
  distance : Bigint.t;  (** the jointly revealed distance value *)
  cost : Cost.t;  (** per-party, per-phase work and time *)
  stats : Stats.t;  (** bytes/values/rounds over the wire *)
  session : Params.session;  (** the masking parameters that were used *)
}

val distance_int : result -> int
(** The distance as a native int.
    @raise Failure if it does not fit (cannot happen for valid params). *)

(** {1 The unified engine} *)

type algo = [ `Dtw | `Dfd | `Erp | `Euclidean ]
(** Which secure distance to evaluate.  Same constructors as
    {!Client.distance_kind} (an [algo] coerces directly). *)

type strategy = [ `Full | `Wavefront ]
(** Round-trip strategy.  [`Full] is the paper's cell-at-a-time
    protocol; [`Wavefront] batches each anti-diagonal into one round
    trip ([m + n - 3] rounds instead of [(m-1)(n-1)]), with identical
    results and leakage profile.  Every DP distance (DTW, DFD, ERP) has
    both; Euclidean has no rounds to batch. *)

type spec = {
  algo : algo;
  band : int option;
      (** Sakoe–Chiba band radius; only meaningful for [`Dtw]/[`Dfd]. *)
  strategy : strategy;
  gap : int array option;
      (** ERP's public gap element; required iff [algo = `Erp]. *)
  packing : bool;
      (** Offer the plaintext-packing capability (see {!Client.connect}).
          Packed runs reveal the same distances as unpacked ones but not
          the same transcript bytes; default [false]. *)
}
(** A full description of the session to run.  Build with {!spec} or as
    a record literal; either way {!run} validates the combination. *)

val spec :
  ?band:int -> ?strategy:strategy -> ?gap:int array -> ?packing:bool -> algo -> spec
(** [spec `Dtw], [spec ~band:5 `Dfd], [spec ~gap:[|0|] `Erp], ...
    [strategy] defaults to [`Full], [packing] to [false]. *)

val run :
  spec:spec ->
  ?params:Params.t ->
  ?seed:string ->
  ?max_value:int ->
  ?decryption:[ `Standard | `Crt ] ->
  ?offline:bool ->
  ?jobs:int ->
  x:Series.t ->
  y:Series.t ->
  unit ->
  result
(** Run one complete secure session described by [spec] between client
    series [x] and server series [y].

    [seed] makes the run deterministic (tests/benches); omitted, both
    parties draw from [/dev/urandom].  [max_value] overrides the
    advertised coordinate bound (default: the actual maximum of each
    party's series).  [decryption] picks the server's decryption path
    (see {!Server.create}); [offline] toggles the client's randomness
    precomputation (see {!Client.connect}); [jobs] (default 1) sizes the
    Domain worker pool both parties share for their Paillier fan-outs —
    a seeded run's transcript and revealed distance are bit-identical at
    any [jobs] value (see {!Client.connect} for the determinism
    contract).  The result's [stats] feed {!Netsim.estimate}.

    Every unpacked run is checked against {!expected_values_transferred}
    in the {!Ledger}.

    @raise Invalid_argument on an inconsistent [spec]: [gap] present
    without [`Erp] or absent with it; [band] with [`Erp]/[`Euclidean];
    [`Wavefront] with [`Euclidean]; a negative band.
    @raise Secure_dp.Band_too_narrow when a banded run's band admits no
    warping path. *)

val runner_of_spec : spec -> Client.t -> Bigint.t
(** The driver a [spec] denotes, as a function over an already-connected
    client — validation included (same exceptions as {!run}).  {!Query}
    uses this to run the exact stage of a 1-vs-N search on its own
    connection; {!run} is [runner_of_spec] plus session setup. *)

type windows_result = {
  window_distances : Bigint.t array;  (** one per window offset *)
  windows_cost : Cost.t;
  windows_stats : Stats.t;
}

val subsequence :
  ?seed:string -> ?max_value:int -> x:Series.t -> y:Series.t -> unit -> windows_result
(** Secure subsequence matching: Euclidean distance of server series [y]
    against every window of client series [x]
    (see {!Secure_euclidean.sliding_windows}).  [seed] and [max_value] as
    {!run}; both parties use the default {!Params} and one job. *)

val expected_values_transferred :
  params:Params.t -> m:int -> n:int -> d:int -> spec -> int
(** The paper's Section 5.2 communication formula — [mn(d + k + 4)]
    values for DTW — in this implementation's exact message layout
    (border cells and the reveal round included), for the unpacked
    profile of any [spec]: [n(d + 1)] for phase 1 and 2 for the reveal,
    plus the masked rounds of the engine's plan
    ({!Secure_dp.masked_values}; Euclidean has none).  Tests assert the live accounting matches it.
    @raise Invalid_argument / Secure_dp.Band_too_narrow as {!run}. *)

val expected_query_values :
  params:Params.t -> candidates:int -> segments:int -> d:int -> int
(** Closed-form value count for the {e pruning stage} of a 1-vs-N query
    (unpacked profile, both directions): per candidate, per segment, per
    dimension the two sketch ciphertexts, one 3-way secure-max instance
    ([3 + k - 1] masked candidates out, one result back), plus one
    blinded verdict ciphertext per candidate —
    [C*S*d*(k + 5) + C] in total.  The admission ledger's
    [declare_query] allowance ([C*(S*d + 1)] chargeable cells) is sized
    from the same layout; tests pin both numbers against the live
    accounting. *)
