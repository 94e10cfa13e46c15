(** Analytic network-cost model: project a channel's {!Stats} (bytes and
    rounds) onto a link to predict the protocol's wall-clock time on
    networks the benchmark machine does not have.

    The model charges each request/reply round one round-trip time plus
    serialization delay for both payloads (headers included), on top of
    the measured computation time:

    [predicted = compute + Σ_rounds (rtt + (req + 4 + rep + 4) / bandwidth)]

    This is deliberately simple — no congestion, no pipelining across
    rounds (the protocol is strictly request/reply), no TCP slow start.
    It is the lens that makes the wavefront extension's value visible:
    sequential DTW pays [(m-1)(n-1)] RTTs, wavefront pays [m + n - 3]. *)

type link = {
  rtt_seconds : float;  (** round-trip latency *)
  bandwidth_bytes_per_second : float;
}

val lan : link
(** 0.2 ms RTT, 1 Gbit/s. *)

val wan : link
(** 30 ms RTT, 100 Mbit/s. *)

val datacenter : link
(** 0.05 ms RTT, 10 Gbit/s. *)

val link : rtt_ms:float -> mbit_per_s:float -> link

type estimate = {
  compute_seconds : float;
  latency_seconds : float;  (** rounds × RTT *)
  transfer_seconds : float;  (** bytes / bandwidth *)
  total_seconds : float;
}

val estimate : link:link -> compute_seconds:float -> Stats.t -> estimate
