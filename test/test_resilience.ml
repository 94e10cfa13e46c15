(* Fault-tolerance suite: CRC-32 vectors and frame integrity, the retry
   policy, the TTL resume table, codec robustness under single-byte
   corruption, and the chaos matrix — a seeded 8x8 DTW run forced to
   disconnect at every frame index must still reveal the bit-identical
   distance through reconnect + resume. *)

open Ppst_transport
open Ppst_telemetry

let eq_bi = Alcotest.testable Ppst_bigint.Bigint.pp Ppst_bigint.Bigint.equal

(* --- crc32 ----------------------------------------------------------------- *)

let test_crc32_vectors () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.digest "");
  (* a second independent vector (RFC 3720 appendix style) *)
  Alcotest.(check int) "32 zero bytes" 0x190A55AD
    (Crc32.digest (String.make 32 '\000'))

let test_crc32_composition () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let n = String.length s in
  Alcotest.(check int) "update 0 s = digest s" (Crc32.digest s)
    (Crc32.update 0 s 0 n);
  (* streaming over an arbitrary split point equals the one-shot digest *)
  for cut = 0 to n do
    Alcotest.(check int)
      (Printf.sprintf "split at %d" cut)
      (Crc32.digest s)
      (Crc32.update (Crc32.update 0 s 0 cut) s cut (n - cut))
  done;
  (match Crc32.update 0 s 0 (n + 1) with
   | _ -> Alcotest.fail "out-of-range slice accepted"
   | exception Invalid_argument _ -> ())

(* Several Domains digest one buffer at once and each gets the sequential
   digest.  It runs first in this suite, so in a fresh process it holds
   the first CRC calls: a table built on first use would be forced by
   all of them together. *)
let test_crc32_concurrent () =
  let s = String.init 65536 (fun i -> Char.chr ((i * 131 + (i lsr 8)) land 0xFF)) in
  let domains = List.init 4 (fun _ -> Domain.spawn (fun () -> Crc32.digest s)) in
  let digests = List.map Domain.join domains in
  let sequential = Crc32.digest s in
  List.iteri
    (fun i d -> Alcotest.(check int) (Printf.sprintf "domain %d" i) sequential d)
    digests

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      (try Unix.close w with Unix.Unix_error _ -> ()))
    (fun () -> f r w)

let test_crc_frame_roundtrip () =
  with_pipe (fun r w ->
      let payload = String.init 100 (fun i -> Char.chr (i * 7 land 0xff)) in
      Channel.write_frame ~crc:true w payload;
      match Channel.read_frame ~crc:true r with
      | Some got -> Alcotest.(check string) "trailer stripped" payload got
      | None -> Alcotest.fail "unexpected EOF")

let test_crc_detects_corruption () =
  (* corrupt one byte in flight (read-side injector): the frame must
     surface as a typed Frame_corrupt, never as codec input *)
  with_pipe (fun r w ->
      Channel.write_frame ~crc:true w "ciphertext bytes";
      let faults = Faults.create (Faults.Corrupt_every (1, 3)) in
      match Channel.read_frame ~crc:true ~faults r with
      | _ -> Alcotest.fail "corrupt frame accepted"
      | exception Channel.Frame_corrupt _ -> ())

let test_crc_covers_every_byte () =
  (* flipping any single byte of the encoded frame body must be caught *)
  let payload = "0123456789abcdef" in
  for k = 0 to String.length payload + 4 - 1 do
    with_pipe (fun r w ->
        Channel.write_frame ~crc:true w payload;
        let faults = Faults.create (Faults.Corrupt_every (1, k)) in
        match Channel.read_frame ~crc:true ~faults r with
        | _ -> Alcotest.fail (Printf.sprintf "flip at byte %d accepted" k)
        | exception Channel.Frame_corrupt _ -> ())
  done

(* --- retry policy ----------------------------------------------------------- *)

let seeded s = Ppst_rng.Secure_rng.of_seed_string s

let test_backoff_bounds () =
  let policy =
    { Retry.max_attempts = 10; base_delay_s = 0.1; max_delay_s = 1.0;
      multiplier = 2.0 }
  in
  let rng = seeded "backoff-bounds" in
  for attempt = 1 to 9 do
    let ceiling = Float.min 1.0 (0.1 *. (2.0 ** float_of_int (attempt - 1))) in
    for _ = 1 to 50 do
      let d = Retry.backoff_delay policy ~rng ~attempt ~hint:None in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [0, %g]" attempt ceiling)
        true
        (d >= 0.0 && d <= ceiling)
    done
  done

let test_backoff_deterministic () =
  let policy = Retry.default_policy in
  let sample seed =
    let rng = seeded seed in
    List.init 8 (fun i -> Retry.backoff_delay policy ~rng ~attempt:(i + 1) ~hint:None)
  in
  Alcotest.(check (list (float 0.0))) "same seed, same jitter"
    (sample "det") (sample "det")

let test_backoff_hint_floor () =
  let rng = seeded "hint" in
  let d =
    Retry.backoff_delay Retry.default_policy ~rng ~attempt:1 ~hint:(Some 5.0)
  in
  Alcotest.(check bool) "server hint floors the delay" true (d >= 5.0)

let test_with_retry_recovers () =
  let failures = ref 2 in
  let slept = ref [] in
  let tried = ref 0 in
  let v =
    Retry.with_retry
      ~policy:{ Retry.default_policy with max_attempts = 5 }
      ~rng:(seeded "recover")
      ~sleep:(fun d -> slept := d :: !slept)
      ~on_attempt:(fun ~attempt:_ ~delay_s:_ _ -> incr tried)
      ~classify:(function Failure _ -> `Retry | _ -> `Fail)
      (fun () ->
        if !failures > 0 then begin
          decr failures;
          failwith "transient"
        end
        else 42)
  in
  Alcotest.(check int) "eventually succeeds" 42 v;
  Alcotest.(check int) "two retries observed" 2 !tried;
  Alcotest.(check int) "slept once per retry" 2 (List.length !slept)

let test_with_retry_exhausts () =
  match
    Retry.with_retry
      ~policy:{ Retry.default_policy with max_attempts = 3 }
      ~rng:(seeded "exhaust")
      ~sleep:(fun _ -> ())
      ~classify:(fun _ -> `Retry)
      (fun () -> failwith "always down")
  with
  | _ -> Alcotest.fail "exhausted retry returned"
  | exception Retry.Exhausted { attempts; last = Failure _ } ->
    Alcotest.(check int) "all attempts spent" 3 attempts
  | exception Retry.Exhausted _ -> Alcotest.fail "wrong last exception"

let test_with_retry_fail_immediate () =
  let calls = ref 0 in
  match
    Retry.with_retry ~rng:(seeded "fail") ~sleep:(fun _ -> ())
      ~classify:(fun _ -> `Fail)
      (fun () ->
        incr calls;
        invalid_arg "fatal")
  with
  | _ -> Alcotest.fail "fatal error retried"
  | exception Invalid_argument _ -> Alcotest.(check int) "one call" 1 !calls

let test_with_retry_honours_retry_after () =
  let slept = ref [] in
  let failures = ref 1 in
  ignore
    (Retry.with_retry ~rng:(seeded "after")
       ~sleep:(fun d -> slept := d :: !slept)
       ~classify:(function Channel.Busy { retry_after_s } -> `Retry_after retry_after_s | _ -> `Fail)
       (fun () ->
         if !failures > 0 then begin
           decr failures;
           raise (Channel.Busy { retry_after_s = 1.5 })
         end
         else ()));
  match !slept with
  | [ d ] -> Alcotest.(check bool) "slept at least the hint" true (d >= 1.5)
  | _ -> Alcotest.fail "expected exactly one sleep"

(* --- faults ------------------------------------------------------------------ *)

let test_faults_deterministic_schedule () =
  let t = Faults.create (Faults.Drop_at 2) in
  Alcotest.(check bool) "frame 1 passes" true (Faults.next t = Faults.Pass);
  Alcotest.(check bool) "frame 2 drops" true (Faults.next t = Faults.Drop);
  Alcotest.(check bool) "frame 3 passes" true (Faults.next t = Faults.Pass);
  Alcotest.(check int) "frames counted" 3 (Faults.frames t);
  Alcotest.(check int) "one fault injected" 1 (Faults.injected t);
  let c = Faults.create (Faults.Corrupt_every (3, 5)) in
  for i = 1 to 9 do
    let a = Faults.next c in
    if i mod 3 = 0 then
      Alcotest.(check bool)
        (Printf.sprintf "frame %d corrupts byte 5" i)
        true
        (a = Faults.Corrupt 5)
    else
      Alcotest.(check bool) (Printf.sprintf "frame %d passes" i) true
        (a = Faults.Pass)
  done

let test_faults_profile_strings () =
  List.iter
    (fun s ->
      match Faults.profile_of_string s with
      | Ok p ->
        Alcotest.(check string) ("round trip " ^ s) s (Faults.profile_to_string p)
      | Error m -> Alcotest.fail (s ^ ": " ^ m))
    [ "off"; "drop-at-7"; "drop-every-64"; "short-every-9"; "dup-every-12" ];
  (match Faults.profile_of_string "drop-every-0" with
   | Ok _ -> Alcotest.fail "zero period accepted"
   | Error _ -> ());
  (match Faults.profile_of_string "gibberish" with
   | Ok _ -> Alcotest.fail "gibberish accepted"
   | Error _ -> ())

(* --- resume table ------------------------------------------------------------ *)

let test_resume_table_ttl () =
  let now = ref 0.0 in
  let t = Resume_table.create ~now:(fun () -> !now) ~capacity:8 ~ttl_s:10.0 () in
  Resume_table.put t "alpha" 1;
  Resume_table.put t "beta" 2;
  Alcotest.(check int) "two parked" 2 (Resume_table.size t);
  Alcotest.(check bool) "alpha taken" true (Resume_table.take t "alpha" = Some 1);
  Alcotest.(check bool) "take is once" true (Resume_table.take t "alpha" = None);
  now := 10.5;
  Alcotest.(check bool) "beta expired" true (Resume_table.take t "beta" = None);
  Alcotest.(check int) "expiry counted" 1 (Resume_table.expired_total t);
  Alcotest.(check int) "table empty" 0 (Resume_table.size t)

let test_resume_table_capacity () =
  let now = ref 0.0 in
  let t = Resume_table.create ~now:(fun () -> !now) ~capacity:2 ~ttl_s:100.0 () in
  Resume_table.put t "oldest" 1;
  now := 1.0;
  Resume_table.put t "middle" 2;
  now := 2.0;
  (* at capacity: the entry closest to expiry (oldest) must make room *)
  Resume_table.put t "newest" 3;
  Alcotest.(check int) "bounded" 2 (Resume_table.size t);
  Alcotest.(check int) "one eviction" 1 (Resume_table.evicted_total t);
  Alcotest.(check bool) "oldest evicted" true (Resume_table.take t "oldest" = None);
  Alcotest.(check bool) "middle kept" true (Resume_table.take t "middle" = Some 2);
  Alcotest.(check bool) "newest kept" true (Resume_table.take t "newest" = Some 3)

let test_resume_table_sweep_and_validation () =
  let now = ref 0.0 in
  let t = Resume_table.create ~now:(fun () -> !now) ~capacity:4 ~ttl_s:5.0 () in
  Resume_table.put t "a" 1;
  Resume_table.put t "b" 2;
  now := 6.0;
  Alcotest.(check int) "sweep drops both" 2 (Resume_table.sweep t);
  Alcotest.(check int) "empty after sweep" 0 (Resume_table.size t);
  (match Resume_table.create ~capacity:0 ~ttl_s:1.0 () with
   | _ -> Alcotest.fail "capacity 0 accepted"
   | exception Invalid_argument _ -> ());
  (match Resume_table.create ~capacity:1 ~ttl_s:0.0 () with
   | _ -> Alcotest.fail "zero ttl accepted"
   | exception Invalid_argument _ -> ())

(* --- codec corruption fuzz --------------------------------------------------- *)

let fuzz_messages =
  let b = Ppst_bigint.Bigint.of_string in
  [
    Message.Request (Message.Hello { flags = 0; spec = None });
    Message.Request
      (Message.Hello { flags = Message.flag_crc32 lor Message.flag_resume; spec = None });
    Message.Request Message.Phase1_request;
    Message.Request (Message.Min_request [| b "1"; b "22"; b "333" |]);
    Message.Request (Message.Max_request [| b "987654321987654321" |]);
    Message.Request (Message.Reveal_request (b "31337"));
    Message.Request Message.Catalog_request;
    Message.Request (Message.Select_request 7);
    Message.Request Message.Stats_req;
    Message.Request Message.Bye;
    Message.Request
      (Message.Resume { token = "0123456789abcdef"; client_rounds = 9; flags = 3 });
    Message.Reply
      (Message.Welcome
         { n = b "13497220662202513373"; key_bits = 64; series_length = 8;
           dimension = 1; max_value = 100;
           flags = Message.flag_crc32 lor Message.flag_resume;
           resume_token = String.init 16 (fun i -> Char.chr (i lxor 0x5a)) });
    Message.Reply
      (Message.Phase1_reply
         [| { Message.sum_sq = b "11"; coords = [| b "1"; b "2" |] } |]);
    Message.Reply (Message.Cipher_reply (b "424242424242"));
    Message.Reply (Message.Reveal_reply (b "3"));
    Message.Reply (Message.Catalog_reply [| 10; 20; 30 |]);
    Message.Reply (Message.Select_ack 2);
    Message.Reply (Message.Bye_ack { server_seconds = 1.25 });
    Message.Reply (Message.Busy { retry_after_s = 2.5 });
    Message.Reply (Message.Stats_reply "active 1\n");
    Message.Reply (Message.Error_reply "something went wrong");
    Message.Reply
      (Message.Resume_ack { server_rounds = 10; reply = "\x81abc"; flags = 3 });
    Message.Reply (Message.Resume_reject { reason = "expired" });
  ]

let test_codec_single_byte_flips () =
  (* every single-byte corruption of every message tag either decodes
     (the flip landed somewhere representable) or raises the typed
     Wire.Malformed — never Invalid_argument, Failure or a crash.  This
     is the layer beneath CRC: even when integrity checking is off
     (old peer), corruption cannot reach Paillier.decrypt as garbage
     through an uncaught exception path. *)
  List.iter
    (fun msg ->
      let encoded = Message.encode msg in
      for i = 0 to String.length encoded - 1 do
        List.iter
          (fun mask ->
            let mutated = Bytes.of_string encoded in
            Bytes.set mutated i
              (Char.chr (Char.code (Bytes.get mutated i) lxor mask));
            let mutated = Bytes.to_string mutated in
            if not (String.equal mutated encoded) then
              match Message.decode mutated with
              | _ -> ()
              | exception Wire.Malformed _ -> ()
              | exception e ->
                Alcotest.fail
                  (Printf.sprintf "%s: flip 0x%02x at byte %d escaped as %s"
                     (Message.describe msg) mask i (Printexc.to_string e)))
          [ 0x01; 0x80; 0xFF ]
      done)
    fuzz_messages

(* --- chaos: disconnect at every frame index ---------------------------------- *)

let series_y = Ppst_timeseries.Series.of_list [ 2; 4; 6; 5; 7; 3; 8; 1 ]
let series_x = Ppst_timeseries.Series.of_list [ 3; 4; 5; 4; 6; 7; 2; 6 ]
let max_value = 9

let make_loop ?(config = Server_loop.default_config) ?clock ?on_session_end
    ~seed () =
  let rng = Ppst_rng.Secure_rng.of_seed_string (seed ^ "/keygen") in
  let _pk, sk =
    Ppst_paillier.Paillier.keygen ~bits:Ppst.Params.default.Ppst.Params.key_bits
      rng
  in
  let handler ~id ~peer:_ =
    let server =
      Ppst.Server.create_with_key ~sk
        ~rng:
          (Ppst_rng.Secure_rng.of_seed_string
             (Printf.sprintf "%s/session-%d" seed id))
        ~series:series_y ~max_value ()
    in
    Ppst.Server.handle server
  in
  let loop =
    Server_loop.create ~config ?clock ?on_session_end ~port:0
      ~handler:(fun ~id ~peer -> Server_loop.respond_only (handler ~id ~peer)) ()
  in
  let runner = Thread.create (fun () -> Server_loop.run loop) () in
  (loop, runner)

let stop (loop, runner) =
  Server_loop.shutdown loop;
  Thread.join runner

(* Fast retry policy for tests: same shape, milliseconds not seconds. *)
let fast_policy =
  { Retry.max_attempts = 10; base_delay_s = 0.002; max_delay_s = 0.02;
    multiplier = 2.0 }

(* One full secure-DTW session against [port] with [faults] installed in
   the client's frame path.  A fault that lands before the resume token
   exists (the Hello exchange itself) is unrecoverable by design: the
   client restarts the whole session — with the same seed, so the
   transcript it replays is the same one.  The injector keeps its frame
   counter across restarts, keeping the schedule deterministic. *)
let run_chaos_client ~port ~seed ?faults () =
  let rec attempt tries =
    let channel =
      Channel.connect ~retry:fast_policy
        ~rng:(seeded (seed ^ "/jitter"))
        ?faults ~host:"127.0.0.1" ~port ()
    in
    match
      let rng = seeded (seed ^ "/client") in
      let client =
        Ppst.Client.connect ~rng ~series:series_x ~max_value ~distance:`Dtw
          channel
      in
      let d = Ppst.Secure_dp.(run dtw Full Row_major) client in
      Ppst.Client.finish client;
      d
    with
    | d -> d
    | exception
        (( Channel.Connection_lost _ | Channel.Frame_corrupt _
         | Channel.Resume_rejected _ | Channel.Busy _
         | Retry.Exhausted _ ) as e) ->
      Channel.close channel;
      if tries = 0 then raise e
      else begin
        Thread.delay 0.01;
        attempt (tries - 1)
      end
  in
  attempt 20

let test_chaos_drop_at_every_frame () =
  let t = make_loop ~seed:"chaos" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* clean run: the reference distance, and the frame count that
         bounds the chaos matrix *)
      let probe = Faults.create Faults.Off in
      let reference = run_chaos_client ~port ~seed:"baseline" ~faults:probe () in
      let frames = Faults.frames probe in
      Alcotest.(check bool) "clean run exchanged frames" true (frames > 4);
      let lost0 = Metrics.counter_value (Metrics.counter "transport.connection.lost") in
      let resumed0 = Metrics.counter_value (Metrics.counter "transport.resume.ok") in
      let accepted0 = Metrics.counter_value (Metrics.counter "server.resume.accepted") in
      (* the matrix: kill the connection at every frame index in turn *)
      for k = 1 to frames do
        let faults = Faults.create (Faults.Drop_at k) in
        let d = run_chaos_client ~port ~seed:(Printf.sprintf "drop-%d" k) ~faults () in
        Alcotest.check eq_bi
          (Printf.sprintf "distance identical with drop at frame %d" k)
          reference d
      done;
      let lost = Metrics.counter_value (Metrics.counter "transport.connection.lost") in
      let resumed = Metrics.counter_value (Metrics.counter "transport.resume.ok") in
      let accepted = Metrics.counter_value (Metrics.counter "server.resume.accepted") in
      Alcotest.(check bool) "connection losses recorded" true (lost > lost0);
      Alcotest.(check bool) "client resumes recorded" true (resumed > resumed0);
      Alcotest.(check bool) "server resume grants recorded" true
        (accepted > accepted0);
      (* the same counters are visible to a remote operator via Stats_req *)
      let ch = Channel.connect ~host:"127.0.0.1" ~port () in
      Fun.protect ~finally:(fun () -> Channel.close ch)
        (fun () ->
          match Channel.request ch Message.Stats_req with
          | Message.Stats_reply text ->
            let has needle =
              let nl = String.length needle and tl = String.length text in
              let rec scan i =
                i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
              in
              scan 0
            in
            Alcotest.(check bool) "resume table section" true
              (has "# resume table");
            Alcotest.(check bool) "resume counters exposed" true
              (has "ppst_transport_resume");
            Alcotest.(check bool) "crc counters exposed" true
              (has "ppst_transport_crc")
          | _ -> Alcotest.fail "no stats reply"))

let test_chaos_corruption_recovered () =
  (* periodic in-flight corruption: CRC detects it, resume repairs it,
     and the distance still comes out bit-identical *)
  let t = make_loop ~seed:"chaos-crc" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let reference = run_chaos_client ~port ~seed:"crc-baseline" () in
      let crc0 = Metrics.counter_value (Metrics.counter "transport.crc.failures") in
      (* frame 7 is safely past the plain-text Hello/Welcome exchange *)
      let faults = Faults.create (Faults.Corrupt_every (7, 2)) in
      let d = run_chaos_client ~port ~seed:"crc-chaos" ~faults () in
      Alcotest.check eq_bi "distance identical under corruption" reference d;
      Alcotest.(check bool) "crc failures recorded" true
        (Metrics.counter_value (Metrics.counter "transport.crc.failures") > crc0))

let test_connection_lost_without_resume () =
  (* satellite: with resume declined, a mid-session drop surfaces as the
     typed Connection_lost (not a raw Unix_error) and is accounted *)
  let t = make_loop ~seed:"no-resume" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let faults = Faults.create (Faults.Drop_at 3) in
      let ch =
        Channel.connect ~crc:false ~resume:false ~faults ~host:"127.0.0.1"
          ~port ()
      in
      (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome { flags; resume_token; _ } ->
         Alcotest.(check int) "nothing granted to a flagless hello" 0 flags;
         Alcotest.(check string) "no token" "" resume_token
       | _ -> Alcotest.fail "Hello failed");
      (match Channel.request ch Message.Phase1_request with
       | _ -> Alcotest.fail "dropped connection answered"
       | exception Channel.Connection_lost _ -> ());
      Alcotest.(check int) "failure accounted" 1
        (Stats.failures (Channel.stats ch));
      Channel.close ch)

(* --- resume endpoint: bogus and expired tokens ------------------------------- *)

(* Hand-rolled single frames over a raw socket: the test speaks the wire
   format directly so it can present tokens the channel layer never
   would. *)
let raw_request ~port msg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Channel.write_frame fd (Message.encode (Message.Request msg));
      match Channel.read_frame fd with
      | None -> Alcotest.fail "no reply to raw frame"
      | Some frame ->
        (match Message.decode frame with
         | Message.Reply r -> r
         | Message.Request _ -> Alcotest.fail "server sent a request"))

let test_resume_bogus_token_rejected () =
  let t = make_loop ~seed:"bogus" () in
  let port = Server_loop.port (fst t) in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      match
        raw_request ~port
          (Message.Resume
             { token = "no such token!!!"; client_rounds = 3; flags = 3 })
      with
      | Message.Resume_reject _ -> ()
      | r ->
        Alcotest.fail ("bogus token accepted: " ^ Message.describe (Message.Reply r)))

let test_resume_ttl_eviction_end_to_end () =
  (* a parked session provably expires: fake clock injected into the
     loop's resume table, advanced past the TTL, swept, then the very
     token the server issued is refused *)
  let now = ref 1000.0 in
  let config = { Server_loop.default_config with resume_ttl_s = 30.0 } in
  let t = make_loop ~config ~clock:(fun () -> !now) ~seed:"ttl" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* real handshake to obtain a live token... *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Channel.write_frame fd
        (Message.encode
           (Message.Request
              (Message.Hello
                 {
                   flags = Message.flag_crc32 lor Message.flag_resume;
                   spec = None;
                 })));
      let token =
        match Channel.read_frame fd with
        | Some frame ->
          (match Message.decode frame with
           | Message.Reply (Message.Welcome { resume_token; flags; _ }) ->
             Alcotest.(check int) "both capabilities granted"
               (Message.flag_crc32 lor Message.flag_resume)
               flags;
             Alcotest.(check int) "128-bit token" 16 (String.length resume_token);
             resume_token
           | m -> Alcotest.fail ("no welcome: " ^ Message.describe m))
        | None -> Alcotest.fail "no welcome frame"
      in
      (* ...die without Bye: the server must park the session *)
      Unix.close fd;
      let rec wait_parked n =
        if Server_loop.resume_parked loop >= 1 then ()
        else if n = 0 then Alcotest.fail "session never parked"
        else begin
          Thread.delay 0.01;
          wait_parked (n - 1)
        end
      in
      wait_parked 500;
      (* within the TTL the token is honoured (live Resume_ack) *)
      (match
         raw_request ~port (Message.Resume { token; client_rounds = 1; flags = 3 })
       with
       | Message.Resume_ack { server_rounds; _ } ->
         Alcotest.(check int) "in sync at one round" 1 server_rounds
       | r ->
         Alcotest.fail ("live token refused: " ^ Message.describe (Message.Reply r)));
      (* the ack re-parks nothing yet — the new connection owns the
         session now; kill it again so it parks again *)
      wait_parked 500;
      (* advance the fake clock past the TTL and sweep *)
      now := !now +. config.Server_loop.resume_ttl_s +. 1.0;
      Alcotest.(check bool) "sweep evicted the parked session" true
        (Server_loop.sweep_resume loop >= 1);
      Alcotest.(check int) "nothing parked" 0 (Server_loop.resume_parked loop);
      (* the expired token is now refused *)
      match
        raw_request ~port (Message.Resume { token; client_rounds = 1; flags = 3 })
      with
      | Message.Resume_reject _ -> ()
      | r ->
        Alcotest.fail
          ("expired token accepted: " ^ Message.describe (Message.Reply r)))

let () =
  Alcotest.run "resilience"
    [
      ( "crc32",
        [
          Alcotest.test_case "digest from concurrent domains" `Quick
            test_crc32_concurrent;
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "streaming composition" `Quick test_crc32_composition;
          Alcotest.test_case "frame round trip" `Quick test_crc_frame_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_crc_detects_corruption;
          Alcotest.test_case "every byte covered" `Quick test_crc_covers_every_byte;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff bounds" `Quick test_backoff_bounds;
          Alcotest.test_case "deterministic jitter" `Quick test_backoff_deterministic;
          Alcotest.test_case "retry-after floor" `Quick test_backoff_hint_floor;
          Alcotest.test_case "recovers after transients" `Quick test_with_retry_recovers;
          Alcotest.test_case "exhausts" `Quick test_with_retry_exhausts;
          Alcotest.test_case "fatal fails fast" `Quick test_with_retry_fail_immediate;
          Alcotest.test_case "honours busy hint" `Quick
            test_with_retry_honours_retry_after;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic schedule" `Quick
            test_faults_deterministic_schedule;
          Alcotest.test_case "profile strings" `Quick test_faults_profile_strings;
        ] );
      ( "resume table",
        [
          Alcotest.test_case "ttl expiry" `Quick test_resume_table_ttl;
          Alcotest.test_case "capacity eviction" `Quick test_resume_table_capacity;
          Alcotest.test_case "sweep and validation" `Quick
            test_resume_table_sweep_and_validation;
        ] );
      ( "codec fuzz",
        [
          Alcotest.test_case "single-byte flips stay typed" `Quick
            test_codec_single_byte_flips;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "drop at every frame index" `Quick
            test_chaos_drop_at_every_frame;
          Alcotest.test_case "corruption recovered" `Quick
            test_chaos_corruption_recovered;
          Alcotest.test_case "connection lost without resume" `Quick
            test_connection_lost_without_resume;
          Alcotest.test_case "bogus resume token rejected" `Quick
            test_resume_bogus_token_rejected;
          Alcotest.test_case "ttl eviction end to end" `Quick
            test_resume_ttl_eviction_end_to_end;
        ] );
    ]
