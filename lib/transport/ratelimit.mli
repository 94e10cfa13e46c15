(** Token-bucket rate limiter keyed by peer address.

    A connection-churning peer can starve the accept loop even when
    every individual session is cheap.  The limiter prices each new
    session at one token from that peer's bucket ([burst] capacity,
    [rate_per_s] refill); a drained bucket yields a [`Throttle] with
    the exact delay until the bucket recovers, which {!Server_loop}
    forwards as the [Busy] retry-after hint.

    The clock is injectable (same idiom as {!Resume_table}) so tests
    prove the refill math by advancing a fake clock.  Thread-safe. *)

type config = {
  rate_per_s : float;  (** steady-state admissions per second per peer *)
  burst : float;  (** bucket capacity: admissions allowed in a burst *)
}

type t

val create : ?now:(unit -> float) -> ?max_peers:int -> config -> t
(** [?now] defaults to the monotonic clock.  [?max_peers] (default
    4096) bounds the bucket table; at capacity the fullest bucket — the
    quietest peer's — is dropped.
    @raise Invalid_argument on non-positive rate, burst < 1 or
    max_peers < 1. *)

val admit : t -> string -> [ `Admit | `Throttle of float ]
(** Charge one token against [key]'s bucket.  [`Throttle retry_after_s]
    reports the time until the bucket will hold a token again. *)

val tokens : t -> string -> float
(** Current token balance for [key] (after refill); the full burst for
    a peer never seen. *)

val peers : t -> int
(** Number of tracked peer buckets. *)

val throttled_total : t -> int
(** Number of [`Throttle] verdicts issued over the limiter's life. *)
