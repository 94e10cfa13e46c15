(** One retry policy for every reconnect path: capped exponential
    backoff with {e full jitter} drawn from the ChaCha20 CSPRNG.

    Used by {!Channel.connect} (initial connect), {!Channel.request}
    (mid-session reconnect + resume after {!Channel.Connection_lost} /
    {!Channel.Frame_corrupt}) and the [ppst_client] Busy loop, so all
    three share the same backoff shape and honour the server's
    [Busy.retry_after_s] hint the same way. *)

type policy = {
  max_attempts : int;  (** total tries, the first one included; [>= 1] *)
  base_delay_s : float;  (** backoff ceiling before attempt 2 *)
  max_delay_s : float;  (** backoff ceiling never grows past this *)
  multiplier : float;  (** ceiling growth per attempt (2.0 = doubling) *)
}

val default_policy : policy
(** 8 attempts, 50 ms base, 2 s cap, doubling. *)

exception Exhausted of { attempts : int; last : exn }
(** Raised when every attempt failed with a retryable error; [last] is
    the final attempt's exception. *)

(** Elapsed-time budget for one whole logical operation.

    A {!policy} bounds how many times something is attempted; a budget
    bounds the total {e elapsed} time of the operation, reconnect and
    backoff sleeps included.  One budget is created per user-visible
    operation (e.g. from [ppst_client --budget-s]) and threaded through
    every retry layer underneath — initial connect, mid-session resume,
    Busy loops — so no amount of nested retrying outlives the deadline.
    {!with_retry} additionally truncates its final backoff sleep to the
    remaining budget: the operation gives up within [B] plus at most one
    attempt's own duration, never mid-sleep past the budget.

    The clock is injectable for deterministic tests (like {!Breaker});
    the default is the monotonic clock, whose timescale matches
    {!Channel.read_frame}'s [?deadline]. *)
module Budget : sig
  type t

  exception Exceeded of { budget_s : float }
  (** The operation's budget ran out mid-retry. *)

  val create : ?now:(unit -> float) -> budget_s:float -> unit -> t
  (** Start a budget of [budget_s] seconds from now.
      @raise Invalid_argument on a non-positive budget. *)

  val budget_s : t -> float
  (** The budget this was created with. *)

  val deadline : t -> float
  (** Absolute expiry instant, on the budget's own clock. *)

  val remaining_s : t -> float
  (** Seconds left, floored at [0]. *)

  val expired : t -> bool

  val check : t -> unit
  (** @raise Exceeded when the budget has expired. *)

  val sub : t -> budget_s:float -> t
  (** A sub-operation's budget: [budget_s] seconds from now, clamped so
      it never extends past the parent's deadline.  May be born already
      expired when the parent has no time left. *)
end

val backoff_delay :
  policy -> rng:Ppst_rng.Secure_rng.t -> attempt:int -> hint:float option -> float
(** The sleep before attempt [attempt + 1]: uniform in
    [\[0, min (max_delay_s, base_delay_s * multiplier^(attempt-1))\]]
    (full jitter), floored at [hint] when the peer sent a retry-after.
    Exposed for tests. *)

(** Client-side circuit breaker over the shed/Busy answer.

    A server in sustained overload sheds every new session; retrying on
    schedule only adds to the stampede.  The breaker counts
    {e consecutive} shed answers ([`Retry_after] verdicts) and, at
    [threshold], opens: attempts fail locally with {!Open_circuit} —
    the server never sees them — until the cooldown (floored at the
    last retry-after hint) passes.  Then one probe is allowed through
    (half-open); success closes the breaker, another shed reopens it.
    Non-shed failures (connection lost, corruption) break the streak
    but never open the breaker: it reacts to overload, not to faults.

    The clock is injectable for deterministic tests, like
    {!Resume_table} and {!Ratelimit}.  Thread-safe. *)
module Breaker : sig
  type config = {
    threshold : int;  (** consecutive sheds before opening; [>= 1] *)
    cooldown_s : float;  (** minimum open duration; [> 0] *)
  }

  exception Open_circuit of { retry_after_s : float }
  (** An attempt was suppressed locally; [retry_after_s] is the
      remaining cooldown. *)

  type t

  val create : ?now:(unit -> float) -> ?config:config -> unit -> t
  (** [?now] defaults to the monotonic clock, [?config] to 3 consecutive
      sheds and a 5 s cooldown.
      @raise Invalid_argument on threshold < 1 or non-positive
      cooldown. *)

  val acquire : t -> [ `Proceed | `Open of float ]
  (** Ask permission to attempt.  [`Open remaining_s] means fail
      locally; [`Proceed] from an open breaker whose cooldown has
      passed claims the single half-open probe slot. *)

  val success : t -> unit
  (** The attempt succeeded: close, reset the streak. *)

  val shed : t -> hint:float -> unit
  (** The attempt was shed (Busy/throttle).  May open the breaker;
      [hint] floors the cooldown. *)

  val failure : t -> unit
  (** The attempt failed for a non-shed reason: resets the streak
      (and ends a half-open probe without a verdict). *)

  val state : t -> [ `Closed | `Open | `Half_open ]
  val opened_total : t -> int
end

val with_retry :
  ?policy:policy ->
  ?rng:Ppst_rng.Secure_rng.t ->
  ?sleep:(float -> unit) ->
  ?on_attempt:(attempt:int -> delay_s:float -> exn -> unit) ->
  ?breaker:Breaker.t ->
  ?budget:Budget.t ->
  classify:(exn -> [ `Retry | `Retry_after of float | `Fail ]) ->
  (unit -> 'a) ->
  'a
(** Run [f], retrying per [classify]: [`Fail] re-raises immediately,
    [`Retry] backs off and tries again, [`Retry_after s] does the same
    but never sleeps less than [s].  [?rng] defaults to a fresh
    system-seeded generator; [?sleep] defaults to [Thread.delay]
    (injectable for fast deterministic tests); [?on_attempt] observes
    each retry (logging).

    [?breaker] threads every attempt through a {!Breaker}: outcomes
    feed its state machine ([`Retry_after] verdicts count as sheds),
    and while it is open each would-be attempt is replaced by a local
    {!Breaker.Open_circuit} failure that consumes a retry slot and
    sleeps at least the remaining cooldown — so a run of attempts
    against an overloaded server collapses to the probe schedule.

    [?budget] bounds the total wall time: after each failed attempt the
    budget is checked ({!Budget.Exceeded} when it has run out) and the
    backoff sleep is truncated to the remaining budget, so the loop
    never sleeps past the deadline — at most one further attempt starts
    exactly at it.
    @raise Exhausted after [policy.max_attempts] failed tries.
    @raise Budget.Exceeded when [?budget] expires first.
    @raise Invalid_argument when [policy.max_attempts < 1]. *)
