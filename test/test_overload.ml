(* Tests for the overload-control layer: admission budgets reject
   hostile sessions before any Paillier work, the per-peer rate limiter
   and the client circuit breaker obey their token/state math under a
   fake clock, the slow-peer watchdog cuts a stalled frame, capability
   violations are typed, and a server with every limiter enabled (but
   unsaturated) stays bit-identical to an unlimited one. *)

open Ppst_transport
module Metrics = Ppst_telemetry.Metrics

let eq_bi = Alcotest.testable Ppst_bigint.Bigint.pp Ppst_bigint.Bigint.equal

let series_y = Ppst_timeseries.Series.of_list [ 2; 4; 6; 5; 7 ]
let series_x = Ppst_timeseries.Series.of_list [ 3; 4; 5; 4; 6; 7 ]
let series_small = Ppst_timeseries.Series.of_list [ 3; 4 ]
let max_value = 9

(* How many decryptions the server has run, from the process-wide
   registry — the "no Paillier work happened" oracle. *)
let decrypted () =
  (Metrics.histogram_snapshot (Metrics.histogram "paillier.batch.decrypt")).sum

(* Connections shed so far (rate limit or watermark), process-wide, from
   the metrics registry: tests compare the delta since their start. *)
let shed () = Metrics.counter_value (Metrics.counter "server.shed")

let make_loop ?(config = Server_loop.default_config) ?on_session_end ?wrap ~seed () =
  let rng = Ppst_rng.Secure_rng.of_seed_string (seed ^ "/keygen") in
  let _pk, sk =
    Ppst_paillier.Paillier.keygen ~bits:Ppst.Params.default.Ppst.Params.key_bits rng
  in
  let handler ~id ~peer:_ =
    let server =
      Ppst.Server.create_with_key ~sk
        ~rng:(Ppst_rng.Secure_rng.of_seed_string (Printf.sprintf "%s/session-%d" seed id))
        ~series:series_y ~max_value ()
    in
    let h = Ppst.Server.handle server in
    match wrap with Some w -> w h | None -> h
  in
  let loop =
    Server_loop.create ~config ?on_session_end ~port:0
      ~handler:(fun ~id ~peer -> Server_loop.respond_only (handler ~id ~peer)) ()
  in
  let runner = Thread.create (fun () -> Server_loop.run loop) () in
  (loop, runner)

let stop (loop, runner) =
  Server_loop.shutdown loop;
  Thread.join runner

(* An [on_session_end] hook and a reader of the finished sessions it has
   seen, most recent first. *)
let session_log () =
  let ended = ref [] and mu = Mutex.create () in
  ( (fun s -> Mutex.protect mu (fun () -> ended := s :: !ended)),
    fun () -> Mutex.protect mu (fun () -> !ended) )

let run_client ?(series = series_x) ~port ~seed () =
  let rec attempt tries =
    let channel = Channel.connect ~host:"127.0.0.1" ~port () in
    match
      let rng = Ppst_rng.Secure_rng.of_seed_string (seed ^ "/client") in
      let client =
        Ppst.Client.connect ~rng ~series ~max_value ~distance:`Dtw channel
      in
      let d = Ppst.Secure_dp.(run dtw Full Row_major) client in
      Ppst.Client.finish client;
      (d, Stats.bytes_sent (Channel.stats channel),
       Stats.bytes_received (Channel.stats channel))
    with
    | r -> r
    | exception Channel.Busy _ when tries > 0 ->
      Channel.close channel;
      Thread.delay 0.05;
      attempt (tries - 1)
  in
  attempt 100

(* wait until [pred ()], or fail after ~5 s *)
let eventually msg pred =
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.fail msg
    else begin
      Thread.delay 0.05;
      wait ()
    end
  in
  wait ()

(* --- admission ledger (pure unit tests) --------------------------------- *)

let check_reject msg quota limit requested = function
  | Admission.Reject r ->
    Alcotest.(check string) (msg ^ ": quota") quota r.quota;
    Alcotest.(check int) (msg ^ ": limit") limit r.limit;
    Alcotest.(check int) (msg ^ ": requested") requested r.requested
  | Admission.Admit -> Alcotest.fail (msg ^ ": admitted")

let test_admission_declare () =
  let lim =
    { Admission.unlimited with max_series_len = Some 4; max_dim = Some 2;
      max_cells = Some 10 }
  in
  let t = Admission.create lim in
  check_reject "series-len cap" "series-len" 4 5
    (Admission.declare t ~spec:{ Message.series_len = 5; dimension = 1 }
       ~server_len:3);
  check_reject "dim cap" "dim" 2 3
    (Admission.declare t ~spec:{ Message.series_len = 4; dimension = 3 }
       ~server_len:3);
  check_reject "cell cap at Hello" "cells" 10 12
    (Admission.declare t ~spec:{ Message.series_len = 4; dimension = 1 }
       ~server_len:3);
  (match
     Admission.declare t ~spec:{ Message.series_len = 3; dimension = 1 }
       ~server_len:3
   with
   | Admission.Admit -> ()
   | Reject _ -> Alcotest.fail "within-budget spec rejected")

let test_admission_declared_budget () =
  (* no configured caps at all: the declared m*n alone still binds *)
  let t = Admission.create Admission.unlimited in
  (match
     Admission.declare t ~spec:{ Message.series_len = 2; dimension = 1 }
       ~server_len:3
   with
   | Admission.Admit -> ()
   | Reject _ -> Alcotest.fail "unlimited declare rejected");
  (match Admission.charge_cells t ~kind:`Min ~count:6 ~server_len:3 with
   | Admission.Admit -> ()
   | Reject _ -> Alcotest.fail "within declared m*n rejected");
  check_reject "over declared m*n" "cells" 6 7
    (Admission.charge_cells t ~kind:`Min ~count:1 ~server_len:3);
  (* min and max ledgers are separate: DFD spends one of each per cell *)
  (match Admission.charge_cells t ~kind:`Max ~count:6 ~server_len:3 with
   | Admission.Admit -> ()
   | Reject _ -> Alcotest.fail "max ledger must not share the min ledger");
  (* reselect resets both ledgers (catalog scan = one matrix per record) *)
  Admission.reselect t;
  (match Admission.charge_cells t ~kind:`Min ~count:6 ~server_len:3 with
   | Admission.Admit -> ()
   | Reject _ -> Alcotest.fail "ledger must reset after reselect")

let test_admission_frames () =
  let lim =
    { Admission.unlimited with max_session_bytes = Some 100;
      max_session_frames = Some 3 }
  in
  let t = Admission.create lim in
  (match Admission.charge_frame t ~bytes:60 with
   | Admission.Admit -> ()
   | Reject _ -> Alcotest.fail "first frame rejected");
  check_reject "byte budget" "bytes" 100 120 (Admission.charge_frame t ~bytes:60);
  let t = Admission.create lim in
  (match Admission.charge_frame t ~bytes:1 with Admission.Admit -> () | _ -> ());
  (match Admission.charge_frame t ~bytes:1 with Admission.Admit -> () | _ -> ());
  (match Admission.charge_frame t ~bytes:1 with Admission.Admit -> () | _ -> ());
  check_reject "frame budget" "frames" 3 4 (Admission.charge_frame t ~bytes:1)

let test_cells_of_request () =
  let one = Ppst_bigint.Bigint.of_int 1 in
  Alcotest.(check (option (pair string int)))
    "min" (Some ("min", 1))
    (Option.map
       (fun (k, n) -> ((match k with `Min -> "min" | `Max -> "max"), n))
       (Admission.cells_of_request (Message.Min_request [| one; one |])));
  Alcotest.(check (option (pair string int)))
    "batch max" (Some ("max", 3))
    (Option.map
       (fun (k, n) -> ((match k with `Min -> "min" | `Max -> "max"), n))
       (Admission.cells_of_request
          (Message.Batch_max_request [| [| one |]; [| one |]; [| one |] |])));
  Alcotest.(check bool) "phase1 costs no cells" true
    (Admission.cells_of_request Message.Phase1_request = None)

(* --- rate limiter (fake clock) ------------------------------------------ *)

let test_ratelimit_refill () =
  let now = ref 0.0 in
  let rl =
    Ratelimit.create ~now:(fun () -> !now)
      { Ratelimit.rate_per_s = 1.0; burst = 2.0 }
  in
  Alcotest.(check bool) "burst 1" true (Ratelimit.admit rl "a" = `Admit);
  Alcotest.(check bool) "burst 2" true (Ratelimit.admit rl "a" = `Admit);
  (match Ratelimit.admit rl "a" with
   | `Throttle d -> Alcotest.(check (float 1e-9)) "full token owed" 1.0 d
   | `Admit -> Alcotest.fail "empty bucket admitted");
  now := 0.5;
  (match Ratelimit.admit rl "a" with
   | `Throttle d -> Alcotest.(check (float 1e-9)) "half refilled" 0.5 d
   | `Admit -> Alcotest.fail "half-full token admitted");
  now := 1.0;
  Alcotest.(check bool) "refilled" true (Ratelimit.admit rl "a" = `Admit);
  (* refill never exceeds burst *)
  now := 1000.0;
  Alcotest.(check (float 1e-9)) "capped at burst" 2.0 (Ratelimit.tokens rl "a");
  Alcotest.(check int) "throttle verdicts counted" 2 (Ratelimit.throttled_total rl)

let test_ratelimit_per_peer () =
  let now = ref 0.0 in
  let rl =
    Ratelimit.create ~now:(fun () -> !now)
      { Ratelimit.rate_per_s = 1.0; burst = 1.0 }
  in
  Alcotest.(check bool) "a admitted" true (Ratelimit.admit rl "a" = `Admit);
  Alcotest.(check bool) "a drained" true (Ratelimit.admit rl "a" <> `Admit);
  (* a hammering peer never touches another peer's bucket *)
  Alcotest.(check bool) "b unaffected" true (Ratelimit.admit rl "b" = `Admit);
  Alcotest.(check int) "two buckets" 2 (Ratelimit.peers rl)

let test_ratelimit_eviction () =
  let now = ref 0.0 in
  let rl =
    Ratelimit.create ~now:(fun () -> !now) ~max_peers:2
      { Ratelimit.rate_per_s = 1.0; burst = 4.0 }
  in
  ignore (Ratelimit.admit rl "busy");
  ignore (Ratelimit.admit rl "busy");
  ignore (Ratelimit.admit rl "quiet");
  (* table full: a third peer evicts the fullest bucket (the quietest
     peer), never the one being hammered *)
  ignore (Ratelimit.admit rl "new");
  Alcotest.(check int) "table stays bounded" 2 (Ratelimit.peers rl);
  Alcotest.(check (float 1e-9)) "hammered peer's debt survives" 2.0
    (Ratelimit.tokens rl "busy")

(* --- circuit breaker (fake clock) --------------------------------------- *)

let test_breaker_transitions () =
  let now = ref 0.0 in
  let b =
    Retry.Breaker.create ~now:(fun () -> !now)
      ~config:{ Retry.Breaker.threshold = 3; cooldown_s = 5.0 }
      ()
  in
  Alcotest.(check bool) "starts closed" true (Retry.Breaker.state b = `Closed);
  Retry.Breaker.shed b ~hint:0.0;
  Retry.Breaker.shed b ~hint:0.0;
  Alcotest.(check bool) "two sheds stay closed" true
    (Retry.Breaker.state b = `Closed);
  Retry.Breaker.shed b ~hint:0.0;
  Alcotest.(check bool) "third shed opens" true (Retry.Breaker.state b = `Open);
  (match Retry.Breaker.acquire b with
   | `Open remaining ->
     Alcotest.(check (float 1e-9)) "full cooldown remaining" 5.0 remaining
   | `Proceed -> Alcotest.fail "open breaker let an attempt through");
  now := 5.1;
  (match Retry.Breaker.acquire b with
   | `Proceed -> ()
   | `Open _ -> Alcotest.fail "cooldown passed but still open");
  Alcotest.(check bool) "probing" true (Retry.Breaker.state b = `Half_open);
  (* a second caller during the probe is still held off *)
  (match Retry.Breaker.acquire b with
   | `Open _ -> ()
   | `Proceed -> Alcotest.fail "two concurrent half-open probes");
  (* probe shed: reopen for another full cooldown *)
  Retry.Breaker.shed b ~hint:0.0;
  Alcotest.(check bool) "probe shed reopens" true (Retry.Breaker.state b = `Open);
  now := 11.0;
  (match Retry.Breaker.acquire b with `Proceed -> () | `Open _ ->
    Alcotest.fail "second cooldown passed but still open");
  Retry.Breaker.success b;
  Alcotest.(check bool) "probe success closes" true
    (Retry.Breaker.state b = `Closed);
  Alcotest.(check int) "openings counted" 2 (Retry.Breaker.opened_total b)

let test_breaker_streak_and_hint () =
  let now = ref 0.0 in
  let b =
    Retry.Breaker.create ~now:(fun () -> !now)
      ~config:{ Retry.Breaker.threshold = 2; cooldown_s = 1.0 }
      ()
  in
  (* a non-shed failure (connection lost, corruption) breaks the streak:
     the breaker reacts to overload, not to faults *)
  Retry.Breaker.shed b ~hint:0.0;
  Retry.Breaker.failure b;
  Retry.Breaker.shed b ~hint:0.0;
  Alcotest.(check bool) "streak was reset" true (Retry.Breaker.state b = `Closed);
  (* the server's retry-after hint floors the cooldown *)
  Retry.Breaker.shed b ~hint:10.0;
  Alcotest.(check bool) "opened" true (Retry.Breaker.state b = `Open);
  (match Retry.Breaker.acquire b with
   | `Open remaining ->
     Alcotest.(check (float 1e-9)) "hint floors cooldown" 10.0 remaining
   | `Proceed -> Alcotest.fail "open breaker let an attempt through")

let test_breaker_in_with_retry () =
  let now = ref 0.0 in
  let b =
    Retry.Breaker.create ~now:(fun () -> !now)
      ~config:{ Retry.Breaker.threshold = 2; cooldown_s = 3.0 }
      ()
  in
  let network_attempts = ref 0 in
  let slept = ref [] in
  (* a server in sustained overload: every real attempt is shed *)
  (match
     Retry.with_retry
       ~policy:{ Retry.default_policy with max_attempts = 6 }
       ~rng:(Ppst_rng.Secure_rng.of_seed_string "breaker-retry")
       ~sleep:(fun d -> slept := d :: !slept)
       ~breaker:b
       ~classify:(function
         | Channel.Busy { retry_after_s } -> `Retry_after retry_after_s
         | Retry.Breaker.Open_circuit { retry_after_s } ->
           `Retry_after retry_after_s
         | _ -> `Fail)
       (fun () ->
         incr network_attempts;
         raise (Channel.Busy { retry_after_s = 0.5 }))
   with
   | _ -> Alcotest.fail "shed forever yet succeeded"
   | exception Retry.Exhausted _ -> ());
  (* attempts 1 and 2 dial in and open the breaker; 3..6 fail locally *)
  Alcotest.(check int) "breaker absorbed the stampede" 2 !network_attempts;
  Alcotest.(check bool) "breaker opened" true (Retry.Breaker.opened_total b >= 1);
  (* every post-open sleep honoured at least the remaining cooldown *)
  List.iteri
    (fun i d ->
      ignore i;
      Alcotest.(check bool) "sleeps are positive" true (d >= 0.0))
    !slept

(* --- hostile oversized session: rejected with zero Paillier work --------- *)

let test_quota_rejects_before_crypto () =
  let config =
    {
      Server_loop.default_config with
      admission = { Admission.unlimited with max_cells = Some 15 };
    }
  in
  let on_session_end, ended = session_log () in
  let t = make_loop ~config ~on_session_end ~seed:"quota-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let before = decrypted () in
      (* series_x (6 elements) against the server's 5: 30 cells > 15.
         Client.connect declares the size in Hello and is rejected
         before Phase 1 — before any encryption or decryption. *)
      let ch = Channel.connect ~host:"127.0.0.1" ~port () in
      (match
         Ppst.Client.connect
           ~rng:(Ppst_rng.Secure_rng.of_seed_string "hostile")
           ~series:series_x ~max_value ~distance:`Dtw ch
       with
       | _ -> Alcotest.fail "oversized session admitted"
       | exception Channel.Quota_exceeded { quota; limit; requested } ->
         Alcotest.(check string) "quota name" "cells" quota;
         Alcotest.(check int) "limit" 15 limit;
         Alcotest.(check int) "requested" 30 requested);
      Channel.close ch;
      Alcotest.(check (float 1e-9)) "ZERO decryptions for the reject"
        before (decrypted ());
      (* the quota outcome is recorded... *)
      eventually "no Quota_rejected outcome" (fun () ->
          List.exists
            (fun (s : Server_loop.session) ->
              s.outcome = Server_loop.Quota_rejected "cells")
            (ended ()));
      (* ...and an honest client under the budget completes as ever *)
      let d, _, _ = run_client ~series:series_small ~port ~seed:"honest" () in
      Alcotest.(check bool) "honest session served" true
        (Ppst_bigint.Bigint.compare d Ppst_bigint.Bigint.zero >= 0))

let test_declared_vs_shipped_mismatch () =
  (* no configured caps: the client's own Hello declaration binds it *)
  let t = make_loop ~seed:"mismatch-test" () in
  let port = Server_loop.port (fst t) in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let before = decrypted () in
      let ch = Channel.connect ~crc:false ~resume:false ~host:"127.0.0.1" ~port () in
      (match
         Channel.request ch
           (Message.Hello
              { flags = 0; spec = Some { series_len = 1; dimension = 1 } })
       with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "Hello failed");
      (* declared 1x5 = 5 cells, then ships 6 min instances: the wire
         layer rejects set 6 with the declared budget, decrypting none *)
      let one = Ppst_bigint.Bigint.of_int 1 in
      let sets = Array.make 6 [| one; one |] in
      (match Channel.request ch (Message.Batch_min_request sets) with
       | _ -> Alcotest.fail "over-declaration admitted"
       | exception Channel.Quota_exceeded { quota; limit; requested } ->
         Alcotest.(check string) "quota name" "cells" quota;
         Alcotest.(check int) "declared m*n is the limit" 5 limit;
         Alcotest.(check int) "requested" 6 requested);
      Channel.close ch;
      Alcotest.(check (float 1e-9)) "no candidate was decrypted" before
        (decrypted ()))

(* --- hostile ciphertexts never reach a CRT exponentiation ---------------- *)

let test_garbage_ciphertext_typed () =
  let t = make_loop ~seed:"garbage-test" () in
  let port = Server_loop.port (fst t) in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let ch = Channel.connect ~crc:false ~resume:false ~host:"127.0.0.1" ~port () in
      let n =
        match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
        | Message.Welcome { n; _ } -> n
        | _ -> Alcotest.fail "Hello failed"
      in
      let before = Metrics.counter_value (Metrics.counter "paillier.invalid_ciphertext") in
      let one = Ppst_bigint.Bigint.of_int 1 in
      (* zero never even decodes as a candidate (codec-level reject) *)
      (match Channel.request ch (Message.Min_request [| Ppst_bigint.Bigint.zero; one |]) with
       | _ -> Alcotest.fail "zero accepted as a ciphertext"
       | exception Channel.Protocol_error _ -> ());
      (* n itself: in range but gcd(n, n) = n — a non-unit that would
         crash (or leak) inside CRT decryption if it got that far *)
      (match Channel.request ch (Message.Min_request [| n; one |]) with
       | _ -> Alcotest.fail "non-unit accepted as a ciphertext"
       | exception Channel.Protocol_error _ -> ());
      (* 2n: also a non-unit, well inside [1, n^2-1] *)
      (match
         Channel.request ch (Message.Min_request [| Ppst_bigint.Bigint.add n n; one |])
       with
       | _ -> Alcotest.fail "non-unit 2n accepted as a ciphertext"
       | exception Channel.Protocol_error _ -> ());
      Channel.close ch;
      Alcotest.(check bool) "rejections counted" true
        (Metrics.counter_value (Metrics.counter "paillier.invalid_ciphertext")
         >= before + 2);
      (* in-band errors: the server survives and serves the next client *)
      let d, _, _ = run_client ~port ~seed:"after-garbage" () in
      Alcotest.(check bool) "server survived" true
        (Ppst_bigint.Bigint.compare d Ppst_bigint.Bigint.zero >= 0))

(* --- capability declarations are enforced -------------------------------- *)

let test_crc_without_grant () =
  let t = make_loop ~seed:"cap-crc-test" () in
  let port = Server_loop.port (fst t) in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let before =
        Metrics.counter_value (Metrics.counter "server.capability.violations")
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Channel.write_frame fd
        (Message.encode (Message.Request (Message.Hello { flags = 0; spec = None })));
      (match Channel.read_frame fd with
       | Some frame ->
         (match Message.decode frame with
          | Message.Reply (Message.Welcome { flags; _ }) ->
            Alcotest.(check int) "no capabilities granted" 0 flags
          | _ -> Alcotest.fail "expected Welcome")
       | None -> Alcotest.fail "no Welcome");
      (* a flags-0 session shipping a CRC trailer is a violation, not a
         silent length mismatch *)
      Channel.write_frame ~crc:true fd
        (Message.encode (Message.Request Message.Catalog_request));
      (match Channel.read_frame fd with
       | Some frame ->
         (match Message.decode frame with
          | Message.Reply (Message.Error_reply reason) ->
            Alcotest.(check bool)
              (Printf.sprintf "typed reason (got %S)" reason)
              true
              (String.length reason >= 20
               && String.sub reason 0 20 = "capability violation")
          | _ -> Alcotest.fail "expected a typed Error_reply")
       | None -> Alcotest.fail "connection closed without a reply");
      (try Unix.close fd with _ -> ());
      Alcotest.(check bool) "violation counted" true
        (Metrics.counter_value (Metrics.counter "server.capability.violations")
         > before))

let test_resume_without_grant () =
  let config = { Server_loop.default_config with enable_resume = false } in
  let t = make_loop ~config ~seed:"cap-resume-test" () in
  let port = Server_loop.port (fst t) in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Channel.write_frame fd
        (Message.encode
           (Message.Request (Message.Resume { token = "x"; client_rounds = 0; flags = 0 })));
      (match Channel.read_frame fd with
       | Some frame ->
         (match Message.decode frame with
          | Message.Reply (Message.Resume_reject { reason }) ->
            Alcotest.(check bool)
              (Printf.sprintf "typed reason (got %S)" reason)
              true
              (String.length reason >= 20
               && String.sub reason 0 20 = "capability violation")
          | _ -> Alcotest.fail "expected Resume_reject")
       | None -> Alcotest.fail "connection closed without a reply");
      (try Unix.close fd with _ -> ()))

(* --- slow-peer watchdog --------------------------------------------------- *)

let test_slowloris_cut () =
  let config =
    { Server_loop.default_config with watchdog_timeout_s = Some 0.2 }
  in
  let on_session_end, ended = session_log () in
  let t = make_loop ~config ~on_session_end ~seed:"slowloris-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* claim a 50-byte frame, deliver one byte, go quiet mid-frame *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd "\x00\x00\x00\x32" 0 4);
      ignore (Unix.write_substring fd "\x01" 0 1);
      eventually "watchdog never cut the stalled peer" (fun () ->
          List.exists
            (fun (s : Server_loop.session) -> s.outcome = Server_loop.Slow_peer)
            (ended ()));
      (try Unix.close fd with _ -> ());
      (* the freed slot serves an honest client immediately *)
      let d, _, _ = run_client ~port ~seed:"after-slowloris" () in
      Alcotest.(check bool) "server survived the slowloris" true
        (Ppst_bigint.Bigint.compare d Ppst_bigint.Bigint.zero >= 0))

(* --- health probe ---------------------------------------------------------- *)

let test_health_probe () =
  let config =
    { Server_loop.default_config with max_sessions = 1; retry_after_s = 0.7 }
  in
  let t = make_loop ~config ~seed:"health-test" () in
  let port = Server_loop.port (fst t) in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* client A occupies the single slot *)
      let a = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request a (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "A's Hello failed");
      (* a probe inside A's established session counts that session *)
      (match Channel.request a Message.Health_req with
       | Message.Health_reply { status; active; _ } ->
         Alcotest.(check int) "A's own session is active" 1 active;
         Alcotest.(check int) "A's probe sees the server full" 1 status
       | _ -> Alcotest.fail "expected Health_reply");
      (* the probe is answered even though the serving path is full *)
      let b = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request b Message.Health_req with
       | Message.Health_reply { status; active; capacity; retry_after_s } ->
         Alcotest.(check int) "at capacity" 1 status;
         Alcotest.(check int) "one active" 1 active;
         Alcotest.(check int) "capacity" 1 capacity;
         Alcotest.(check (float 1e-9)) "hint" 0.7 retry_after_s
       | _ -> Alcotest.fail "expected Health_reply");
      Channel.close b;
      Channel.close a;
      (* a probe that negotiated nothing holds the capacity-1 slot only
         to ask, so it does not count itself: the idle server is ready *)
      eventually "slot never freed" (fun () ->
          Server_loop.active_sessions (fst t) = 0);
      let c = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request c Message.Health_req with
       | Message.Health_reply { status; active; capacity; _ } ->
         Alcotest.(check int) "the probe is not an active session" 0 active;
         Alcotest.(check int) "capacity" 1 capacity;
         Alcotest.(check int) "ready despite the probe's own slot" 0 status
       | _ -> Alcotest.fail "expected Health_reply");
      Channel.close c);
  (* ...and with headroom it reports ready *)
  let t = make_loop ~seed:"health-ready" () in
  let port = Server_loop.port (fst t) in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let c = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request c Message.Health_req with
       | Message.Health_reply { status; capacity; _ } ->
         Alcotest.(check int) "ready" 0 status;
         Alcotest.(check int) "default capacity" 4 capacity
       | _ -> Alcotest.fail "expected Health_reply");
      Channel.close c)

(* --- load shedding ---------------------------------------------------------- *)

let test_shed_watermark () =
  let gate = Mutex.create () in
  let config =
    {
      Server_loop.default_config with
      max_sessions = 4;
      shed_watermark = Some 1;
      retry_after_s = 0.3;
    }
  in
  (* Catalog_request blocks on [gate]: while A holds the server inside
     the handler, the watermark is crossed and new sessions shed. *)
  let wrap h req =
    (match req with
     | Message.Catalog_request ->
       Mutex.lock gate;
       Mutex.unlock gate
     | _ -> ());
    h req
  in
  let shed0 = shed () in
  let t = make_loop ~config ~wrap ~seed:"shed-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let a = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request a (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "A's Hello failed");
      Mutex.lock gate;
      let a_runner =
        Thread.create
          (fun () -> ignore (Channel.request a Message.Catalog_request))
          ()
      in
      (* wait until A is provably inside the handler *)
      eventually "A never entered the handler" (fun () ->
          (* probe: shedding status flips once inflight >= watermark *)
          let p = Channel.connect ~host:"127.0.0.1" ~port () in
          let shedding =
            match Channel.request p Message.Health_req with
            | Message.Health_reply { status; _ } -> status = 2
            | _ -> false
            | exception _ -> false
          in
          Channel.close p;
          shedding);
      (* a new session is refused with the retry-after hint... *)
      let b = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request b (Message.Hello { flags = 0; spec = None }) with
       | _ -> Alcotest.fail "session admitted while shedding"
       | exception Channel.Busy { retry_after_s } ->
         Alcotest.(check (float 1e-9)) "hint" 0.3 retry_after_s);
      Channel.close b;
      Alcotest.(check bool) "shed counted" true (shed () - shed0 >= 1);
      (* ...then the handler drains and service resumes *)
      Mutex.unlock gate;
      Thread.join a_runner;
      Channel.close a;
      let d, _, _ = run_client ~port ~seed:"after-shed" () in
      Alcotest.(check bool) "service resumed after shed" true
        (Ppst_bigint.Bigint.compare d Ppst_bigint.Bigint.zero >= 0))

let test_ratelimit_end_to_end () =
  let config =
    {
      Server_loop.default_config with
      ratelimit = Some { Ratelimit.rate_per_s = 0.1; burst = 2.0 };
    }
  in
  let shed0 = shed () in
  let t = make_loop ~config ~seed:"ratelimit-e2e" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* two sessions ride the burst... *)
      for i = 1 to 2 do
        let ch = Channel.connect ~host:"127.0.0.1" ~port () in
        (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
         | Message.Welcome _ -> ()
         | _ -> Alcotest.fail (Printf.sprintf "burst session %d refused" i));
        Channel.close ch
      done;
      (* ...the third is throttled with the exact bucket-recovery delay *)
      let ch = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
       | _ -> Alcotest.fail "over-rate session admitted"
       | exception Channel.Busy { retry_after_s } ->
         Alcotest.(check bool)
           (Printf.sprintf "recovery hint ~10 s (got %.2f)" retry_after_s)
           true
           (retry_after_s > 5.0 && retry_after_s <= 10.0));
      Channel.close ch;
      Alcotest.(check bool) "throttle counted as shed" true
        (shed () - shed0 >= 1))

(* --- determinism: every limiter on, none saturated = bit-identical -------- *)

let test_unsaturated_limiting_is_invisible () =
  let run config =
    let t = make_loop ~config ~seed:"det" () in
    let port = Server_loop.port (fst t) in
    Fun.protect ~finally:(fun () -> stop t)
      (fun () -> run_client ~port ~seed:"det-client" ())
  in
  let d0, sent0, recv0 = run Server_loop.default_config in
  let belt_and_braces =
    {
      Server_loop.default_config with
      admission =
        {
          Admission.max_cells = Some 1000;
          max_series_len = Some 100;
          max_dim = Some 16;
          max_session_bytes = Some (64 * 1024 * 1024);
          max_session_frames = Some 100_000;
        };
      ratelimit = Some { Ratelimit.rate_per_s = 1000.0; burst = 1000.0 };
      shed_watermark = Some 64;
      watchdog_timeout_s = Some 30.0;
    }
  in
  let d1, sent1, recv1 = run belt_and_braces in
  Alcotest.check eq_bi "distance identical" d0 d1;
  Alcotest.(check int) "bytes sent identical" sent0 sent1;
  Alcotest.(check int) "bytes received identical" recv0 recv1

(* --- mixed workload: hostiles rejected, honest sessions unharmed ---------- *)

let test_mixed_workload () =
  (* One slot per concurrent connection below (two honest, three
     hostile): the hostile clients do not retry on Busy, so a capacity
     race would read as a hostile left unhandled. *)
  let config =
    {
      Server_loop.default_config with
      max_sessions = 5;
      admission = { Admission.unlimited with max_cells = Some 15 };
      watchdog_timeout_s = Some 0.3;
    }
  in
  let on_session_end, ended = session_log () in
  let t = make_loop ~config ~on_session_end ~seed:"mixed-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let reference = run_client ~series:series_small ~port ~seed:"mixed-ref" () in
      let ref_d, _, _ = reference in
      eventually "reference session never released its slot" (fun () ->
          Server_loop.active_sessions loop = 0);
      let honest = Array.make 2 (Error "did not finish") in
      let hostile_done = ref 0 in
      let hostile_mutex = Mutex.create () in
      let bump () =
        Mutex.lock hostile_mutex;
        incr hostile_done;
        Mutex.unlock hostile_mutex
      in
      let threads =
        [
          (* two honest clients *)
          Thread.create
            (fun () ->
              honest.(0) <-
                (try
                   let d, _, _ =
                     run_client ~series:series_small ~port ~seed:"mixed-h0" ()
                   in
                   Ok d
                 with e -> Error (Printexc.to_string e)))
            ();
          Thread.create
            (fun () ->
              honest.(1) <-
                (try
                   let d, _, _ =
                     run_client ~series:series_small ~port ~seed:"mixed-h1" ()
                   in
                   Ok d
                 with e -> Error (Printexc.to_string e)))
            ();
          (* an oversized client: quota-rejected at Hello *)
          Thread.create
            (fun () ->
              let ch = Channel.connect ~host:"127.0.0.1" ~port () in
              (try
                 ignore
                   (Ppst.Client.connect
                      ~rng:(Ppst_rng.Secure_rng.of_seed_string "mixed-big")
                      ~series:series_x ~max_value ~distance:`Dtw ch)
               with Channel.Quota_exceeded _ -> bump () | _ -> ());
              try Channel.close ch with _ -> ())
            ();
          (* a garbage-ciphertext client: typed in-band error *)
          Thread.create
            (fun () ->
              let ch =
                Channel.connect ~crc:false ~resume:false ~host:"127.0.0.1" ~port ()
              in
              (try
                 (match
                    Channel.request ch (Message.Hello { flags = 0; spec = None })
                  with
                 | Message.Welcome _ ->
                   (match
                      Channel.request ch
                        (Message.Min_request
                           [| Ppst_bigint.Bigint.zero; Ppst_bigint.Bigint.of_int 1 |])
                    with
                   | _ -> ()
                   | exception Channel.Protocol_error _ -> bump ())
                 | _ -> ())
               with _ -> ());
              try Channel.close ch with _ -> ())
            ();
          (* a slowloris: cut by the watchdog *)
          Thread.create
            (fun () ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              (try
                 Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
                 ignore (Unix.write_substring fd "\x00\x00\x00\x32" 0 4);
                 ignore (Unix.write_substring fd "\x01" 0 1);
                 Thread.delay 1.0;
                 bump ()
               with _ -> ());
              try Unix.close fd with _ -> ())
            ();
        ]
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "every hostile was handled" 3 !hostile_done;
      Array.iteri
        (fun i r ->
          match r with
          | Error m -> Alcotest.fail (Printf.sprintf "honest client %d: %s" i m)
          | Ok d ->
            Alcotest.check eq_bi
              (Printf.sprintf "honest client %d distance undisturbed" i)
              ref_d d)
        honest;
      eventually "slowloris outcome never recorded" (fun () ->
          List.exists
            (fun (s : Server_loop.session) -> s.outcome = Server_loop.Slow_peer)
            (ended ())))

let () =
  Alcotest.run "overload"
    [
      ( "admission",
        [
          Alcotest.test_case "declare caps" `Quick test_admission_declare;
          Alcotest.test_case "declared m*n binds" `Quick
            test_admission_declared_budget;
          Alcotest.test_case "frame budgets" `Quick test_admission_frames;
          Alcotest.test_case "request pricing" `Quick test_cells_of_request;
        ] );
      ( "ratelimit",
        [
          Alcotest.test_case "refill math" `Quick test_ratelimit_refill;
          Alcotest.test_case "per-peer isolation" `Quick test_ratelimit_per_peer;
          Alcotest.test_case "bounded table eviction" `Quick
            test_ratelimit_eviction;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state transitions" `Quick test_breaker_transitions;
          Alcotest.test_case "streak reset and hint floor" `Quick
            test_breaker_streak_and_hint;
          Alcotest.test_case "short-circuits with_retry" `Quick
            test_breaker_in_with_retry;
        ] );
      ( "server",
        [
          Alcotest.test_case "quota rejects before crypto" `Quick
            test_quota_rejects_before_crypto;
          Alcotest.test_case "declared vs shipped mismatch" `Quick
            test_declared_vs_shipped_mismatch;
          Alcotest.test_case "garbage ciphertext typed" `Quick
            test_garbage_ciphertext_typed;
          Alcotest.test_case "crc without grant" `Quick test_crc_without_grant;
          Alcotest.test_case "resume without grant" `Quick
            test_resume_without_grant;
          Alcotest.test_case "slowloris cut" `Quick test_slowloris_cut;
          Alcotest.test_case "health probe" `Quick test_health_probe;
          Alcotest.test_case "shed watermark" `Quick test_shed_watermark;
          Alcotest.test_case "rate limit end to end" `Quick
            test_ratelimit_end_to_end;
          Alcotest.test_case "unsaturated limiting invisible" `Quick
            test_unsaturated_limiting_is_invisible;
          Alcotest.test_case "mixed workload" `Quick test_mixed_workload;
        ] );
    ]
