(* Unified retry policy: capped exponential backoff with full jitter.
   Every reconnect path in the transport — initial connect, mid-session
   resume, the client binary's Busy loop — goes through [with_retry], so
   backoff behaviour is one policy, not three ad-hoc loops. *)

module Metrics = Ppst_telemetry.Metrics

let m_attempts = Metrics.counter "transport.retry.attempts"
let m_exhausted = Metrics.counter "transport.retry.exhausted"
let m_budget_exhausted = Metrics.counter "transport.retry.budget_exhausted"

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  multiplier : float;
}

let default_policy =
  { max_attempts = 8; base_delay_s = 0.05; max_delay_s = 2.0; multiplier = 2.0 }

exception Exhausted of { attempts : int; last : exn }

let () =
  Printexc.register_printer (function
    | Exhausted { attempts; last } ->
      Some
        (Printf.sprintf "Retry.Exhausted(%d attempts, last: %s)" attempts
           (Printexc.to_string last))
    | _ -> None)

(* Uniform in [0, 1) from the CSPRNG: 30 bits is plenty for jitter. *)
let unit_float rng = float_of_int (Ppst_rng.Secure_rng.int rng (1 lsl 30)) /. 1073741824.0

(* An elapsed-time budget for one whole logical operation.  Where [policy]
   bounds the *count* of attempts, a budget bounds their total *elapsed
   time*, reconnect sleeps included: every retry path the budget is
   threaded through stops — and clamps its final backoff sleep — at the
   deadline, so "give up after B seconds" holds end to end no matter how
   many layers of retry sit in between.  The clock is injectable for
   deterministic tests. *)
module Budget = struct
  type t = {
    budget_s : float;
    deadline : float;  (* absolute, on [now]'s timescale *)
    now : unit -> float;
  }

  exception Exceeded of { budget_s : float }

  let () =
    Printexc.register_printer (function
      | Exceeded { budget_s } ->
        Some (Printf.sprintf "Retry.Budget.Exceeded(%.3fs budget)" budget_s)
      | _ -> None)

  let create ?now ~budget_s () =
    if budget_s <= 0.0 then
      invalid_arg "Retry.Budget.create: budget must be positive";
    let now = match now with Some f -> f | None -> Monoclock.now in
    { budget_s; deadline = now () +. budget_s; now }

  let budget_s t = t.budget_s
  let deadline t = t.deadline
  let remaining_s t = Float.max 0.0 (t.deadline -. t.now ())
  let expired t = t.deadline -. t.now () <= 0.0
  let check t = if expired t then raise (Exceeded { budget_s = t.budget_s })

  (* A sub-operation's budget never extends past its parent's deadline:
     [sub b ~budget_s:s] is [min s (remaining b)] seconds from now on the
     parent's clock.  May be born expired — callers treat that as "no
     time left", not an error. *)
  let sub t ~budget_s:s =
    let s = Float.min s (Float.max 0.0 (t.deadline -. t.now ())) in
    { budget_s = s; deadline = t.now () +. s; now = t.now }
end

(* Client-side circuit breaker.  A server under sustained overload
   answers every connect with Busy; hammering it with the full retry
   schedule only deepens the overload.  After [threshold] *consecutive*
   shed answers the breaker opens: further attempts fail locally,
   without touching the network, until the cooldown (floored at the
   server's retry-after hint) passes; then exactly one probe is let
   through (half-open) — success closes the breaker, another shed
   reopens it for a fresh cooldown. *)
module Breaker = struct
  type config = { threshold : int; cooldown_s : float }

  let default_config = { threshold = 3; cooldown_s = 5.0 }

  exception Open_circuit of { retry_after_s : float }

  let () =
    Printexc.register_printer (function
      | Open_circuit { retry_after_s } ->
        Some
          (Printf.sprintf "Retry.Breaker.Open_circuit(retry in %.2fs)"
             retry_after_s)
      | _ -> None)

  type state = Closed | Open_until of float | Half_open

  type t = {
    config : config;
    now : unit -> float;
    mu : Mutex.t;
    mutable state : state;
    mutable consecutive_sheds : int;
    mutable opened_total : int;
  }

  let m_opened = Metrics.counter "transport.breaker.opened"
  let m_short_circuited = Metrics.counter "transport.breaker.short_circuited"

  let create ?now ?(config = default_config) () =
    if config.threshold < 1 then
      invalid_arg "Breaker.create: threshold must be >= 1";
    if config.cooldown_s <= 0.0 then
      invalid_arg "Breaker.create: cooldown must be positive";
    let now = match now with Some f -> f | None -> Monoclock.now in
    {
      config;
      now;
      mu = Mutex.create ();
      state = Closed;
      consecutive_sheds = 0;
      opened_total = 0;
    }

  let state t =
    Mutex.protect t.mu (fun () ->
        match t.state with
        | Closed -> `Closed
        | Open_until _ -> `Open
        | Half_open -> `Half_open)

  let opened_total t = Mutex.protect t.mu (fun () -> t.opened_total)

  (* Ask permission to attempt.  [`Proceed] either means the breaker is
     closed or that this caller just won the half-open probe slot. *)
  let acquire t =
    Mutex.protect t.mu (fun () ->
        match t.state with
        | Closed -> `Proceed
        | Half_open ->
          (* a probe is already in flight; everyone else waits a beat *)
          Metrics.incr m_short_circuited;
          `Open t.config.cooldown_s
        | Open_until until ->
          let remaining = until -. t.now () in
          if remaining <= 0.0 then begin
            t.state <- Half_open;
            `Proceed
          end
          else begin
            Metrics.incr m_short_circuited;
            `Open remaining
          end)

  let success t =
    Mutex.protect t.mu (fun () ->
        t.state <- Closed;
        t.consecutive_sheds <- 0)

  let trip_locked t ~hint =
    let cooldown = Float.max t.config.cooldown_s hint in
    t.state <- Open_until (t.now () +. cooldown);
    t.consecutive_sheds <- 0;
    t.opened_total <- t.opened_total + 1;
    Metrics.incr m_opened

  (* The attempt was shed (Busy / throttle, i.e. a [`Retry_after]). *)
  let shed t ~hint =
    Mutex.protect t.mu (fun () ->
        match t.state with
        | Half_open -> trip_locked t ~hint
        | Closed | Open_until _ ->
          t.consecutive_sheds <- t.consecutive_sheds + 1;
          if t.consecutive_sheds >= t.config.threshold then
            trip_locked t ~hint)

  (* A non-shed failure (connection lost, corrupt frame, ...): breaks
     the consecutive-shed streak — only sheds open the breaker — and
     ends a half-open probe without a verdict, back to closed. *)
  let failure t =
    Mutex.protect t.mu (fun () ->
        t.consecutive_sheds <- 0;
        match t.state with Half_open -> t.state <- Closed | _ -> ())
end

let backoff_delay policy ~rng ~attempt ~hint =
  let attempt = max 1 attempt in
  let ceiling =
    min policy.max_delay_s
      (policy.base_delay_s *. (policy.multiplier ** float_of_int (attempt - 1)))
  in
  (* Full jitter (uniform in [0, ceiling]): decorrelates a thundering
     herd of clients all rejected by the same Busy server.  A peer's
     retry-after hint is a floor — we never come back earlier than the
     server asked. *)
  let jittered = unit_float rng *. ceiling in
  match hint with None -> jittered | Some h -> Float.max h jittered

let with_retry ?(policy = default_policy) ?rng ?(sleep = Thread.delay)
    ?on_attempt ?breaker ?budget ~classify f =
  if policy.max_attempts < 1 then
    invalid_arg "Retry.with_retry: max_attempts must be >= 1";
  let rng =
    match rng with Some r -> r | None -> Ppst_rng.Secure_rng.system ()
  in
  (* The breaker observes every attempt's outcome; an open breaker
     replaces the attempt with a local [Open_circuit] "shed", consuming
     a retry slot and honouring the remaining cooldown as the hint —
     the server never sees the suppressed attempt. *)
  let run_attempt () =
    match breaker with
    | None -> f ()
    | Some b -> (
      match Breaker.acquire b with
      | `Open retry_after_s -> raise (Breaker.Open_circuit { retry_after_s })
      | `Proceed -> (
        match f () with
        | v ->
          Breaker.success b;
          v
        | exception e ->
          (match e with
           | Breaker.Open_circuit _ -> ()
           | _ -> (
             match classify e with
             | `Retry_after s -> Breaker.shed b ~hint:s
             | `Retry | `Fail -> Breaker.failure b));
          raise e))
  in
  let classify e =
    match e with
    | Breaker.Open_circuit { retry_after_s } -> `Retry_after retry_after_s
    | _ -> classify e
  in
  let rec go attempt =
    try run_attempt () with
    | e ->
      let verdict = classify e in
      (match verdict with
       | `Fail -> raise e
       | `Retry | `Retry_after _ ->
         if attempt >= policy.max_attempts then begin
           Metrics.incr m_exhausted;
           raise (Exhausted { attempts = attempt; last = e })
         end;
         (* The wall budget is checked after every failed attempt; when
            it has run out there is no point sleeping at all. *)
         (match budget with
          | Some b when Budget.expired b ->
            Metrics.incr m_budget_exhausted;
            raise (Budget.Exceeded { budget_s = Budget.budget_s b })
          | _ -> ());
         let hint = match verdict with `Retry_after s -> Some s | _ -> None in
         let delay_s = backoff_delay policy ~rng ~attempt ~hint in
         (* The last sleep before a budget expiry is truncated to the
            remaining budget (overriding even a retry-after floor): we
            never sleep past the deadline, so "give up within B" holds
            to within one attempt's own duration. *)
         let delay_s =
           match budget with
           | Some b -> Float.min delay_s (Budget.remaining_s b)
           | None -> delay_s
         in
         Metrics.incr m_attempts;
         (match on_attempt with
          | Some hook -> hook ~attempt ~delay_s e
          | None -> ());
         if delay_s > 0.0 then sleep delay_s;
         go (attempt + 1))
  in
  go 1
