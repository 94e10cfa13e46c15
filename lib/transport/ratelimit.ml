(* Token-bucket rate limiter keyed by peer address.  The clock is
   injectable (same idiom as Resume_table) so tests can prove the
   refill math by advancing time instead of sleeping.

   Each key owns a bucket of at most [burst] tokens refilling at
   [rate_per_s]; a session admission costs one token.  A drained bucket
   answers [`Throttle retry_after_s] with the exact time until the
   bucket holds a token again — Server_loop forwards that as the Busy
   retry-after hint, so well-behaved clients back off precisely. *)

type config = { rate_per_s : float; burst : float }

type bucket = { mutable tokens : float; mutable last_refill : float }

type t = {
  config : config;
  max_peers : int;
  now : unit -> float;
  mu : Mutex.t;
  buckets : (string, bucket) Hashtbl.t;
  mutable throttled_total : int;
}

let m_throttled = Ppst_telemetry.Metrics.counter "ratelimit.throttled"

let create ?now ?(max_peers = 4096) config =
  if config.rate_per_s <= 0.0 then
    invalid_arg "Ratelimit.create: rate must be positive";
  if config.burst < 1.0 then
    invalid_arg "Ratelimit.create: burst must be >= 1";
  if max_peers < 1 then invalid_arg "Ratelimit.create: max_peers must be >= 1";
  let now = match now with Some f -> f | None -> Monoclock.now in
  {
    config;
    max_peers;
    now;
    mu = Mutex.create ();
    buckets = Hashtbl.create 64;
    throttled_total = 0;
  }

(* Callers hold [t.mu].  Bounded table: when full, drop the fullest
   bucket — it belongs to the quietest peer, who loses nothing but a
   little burst allowance if it comes back. *)
let evict_fullest_locked t =
  let victim =
    Hashtbl.fold
      (fun key b acc ->
        match acc with
        | Some (_, best) when best.tokens >= b.tokens -> acc
        | _ -> Some (key, b))
      t.buckets None
  in
  match victim with
  | None -> ()
  | Some (key, _) -> Hashtbl.remove t.buckets key

let bucket_locked t key =
  match Hashtbl.find_opt t.buckets key with
  | Some b -> b
  | None ->
    if Hashtbl.length t.buckets >= t.max_peers then evict_fullest_locked t;
    let b = { tokens = t.config.burst; last_refill = t.now () } in
    Hashtbl.replace t.buckets key b;
    b

let refill_locked t b =
  let now = t.now () in
  let dt = now -. b.last_refill in
  if dt > 0.0 then begin
    b.tokens <- Float.min t.config.burst (b.tokens +. (dt *. t.config.rate_per_s));
    b.last_refill <- now
  end

let admit t key =
  Mutex.protect t.mu (fun () ->
      let b = bucket_locked t key in
      refill_locked t b;
      if b.tokens >= 1.0 then begin
        b.tokens <- b.tokens -. 1.0;
        `Admit
      end
      else begin
        t.throttled_total <- t.throttled_total + 1;
        Ppst_telemetry.Metrics.incr m_throttled;
        `Throttle ((1.0 -. b.tokens) /. t.config.rate_per_s)
      end)

let tokens t key =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.buckets key with
      | None -> t.config.burst
      | Some b ->
        refill_locked t b;
        b.tokens)

let peers t = Mutex.protect t.mu (fun () -> Hashtbl.length t.buckets)
let throttled_total t = Mutex.protect t.mu (fun () -> t.throttled_total)
