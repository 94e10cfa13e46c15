(* Tests for the persistent concurrent server (Server_loop): parallel
   sessions produce distances bit-identical to sequential runs, the
   capacity path answers Busy, and timeouts close a session without
   killing the server. *)

open Ppst_transport

let eq_bi = Alcotest.testable Ppst_bigint.Bigint.pp Ppst_bigint.Bigint.equal

let series_y = Ppst_timeseries.Series.of_list [ 2; 4; 6; 5; 7 ]
let series_x = Ppst_timeseries.Series.of_list [ 3; 4; 5; 4; 6; 7 ]
let max_value = 9

(* Each session gets its own Server.t sharing one secret key, exactly as
   bin/ppst_server wires it.  Sequential workers: sessions themselves
   provide the concurrency. *)
let make_loop ?(config = Server_loop.default_config) ?on_session_end ~seed () =
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
    Ppst.Server.handle server
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

(* Connections answered Busy so far, process-wide (capacity refusals
   plus sheds), read from the metrics registry: tests compare the delta
   since their start. *)
let rejected () =
  Ppst_telemetry.Metrics.(
    counter_value (counter "server.sessions.busy_rejected") + counter_value (counter "server.shed"))

(* A session slot is freed asynchronously after the previous client saw
   its Bye_ack, so even a nominally free server can answer Busy for a
   moment; retry as a real client would. *)
let run_client ~port ~seed =
  let rec attempt tries =
    let channel = Channel.connect ~host:"127.0.0.1" ~port () in
    match
      let rng = Ppst_rng.Secure_rng.of_seed_string (seed ^ "/client") in
      let client =
        Ppst.Client.connect ~rng ~series:series_x ~max_value ~distance:`Dtw
          channel
      in
      let d = Ppst.Secure_dp.(run dtw Full Row_major) client in
      Ppst.Client.finish client;
      d
    with
    | d -> d
    | exception Channel.Busy _ when tries > 0 ->
      Channel.close channel;
      Thread.delay 0.05;
      attempt (tries - 1)
  in
  attempt 100

(* --- parallel sessions = sequential distances ---------------------------- *)

let test_parallel_matches_sequential () =
  let rejected0 = rejected () in
  let t = make_loop ~seed:"concurrent-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* sequential reference first (its own session against the same loop) *)
      let reference = run_client ~port ~seed:"ref" in
      (* its slot is freed asynchronously after our Bye_ack arrived; wait
         so the strict accepted/rejected assertions below aren't racy *)
      let rec wait_idle n =
        if Server_loop.active_sessions loop > 0 && n > 0 then begin
          Thread.delay 0.01;
          wait_idle (n - 1)
        end
      in
      wait_idle 500;
      let n = 4 in
      let results = Array.make n (Error "did not finish") in
      let clients =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                results.(i) <-
                  (try Ok (run_client ~port ~seed:(Printf.sprintf "c%d" i))
                   with e -> Error (Printexc.to_string e)))
              ())
      in
      List.iter Thread.join clients;
      Array.iteri
        (fun i r ->
          match r with
          | Error m -> Alcotest.fail (Printf.sprintf "client %d: %s" i m)
          | Ok d ->
            Alcotest.check eq_bi
              (Printf.sprintf "client %d = sequential distance" i)
              reference d)
        results;
      Alcotest.(check int) "all sessions accepted" (n + 1)
        (Server_loop.accepted loop);
      Alcotest.(check int) "none rejected" 0 (rejected () - rejected0))

(* --- capacity: session N+1 gets Busy -------------------------------------- *)

let test_busy_at_capacity () =
  let config =
    { Server_loop.default_config with max_sessions = 1; retry_after_s = 0.5 }
  in
  let rejected0 = rejected () in
  let t = make_loop ~config ~seed:"busy-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* client A occupies the only slot: complete its Hello so the slot
         is certainly taken before B tries *)
      let a = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request a (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "A's Hello failed");
      (* B must be turned away with the configured hint *)
      let b = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request b (Message.Hello { flags = 0; spec = None }) with
       | _ -> Alcotest.fail "second session admitted beyond capacity"
       | exception Channel.Busy { retry_after_s } ->
         Alcotest.(check (float 1e-9)) "retry hint" 0.5 retry_after_s);
      Channel.close b;
      (* A is unaffected and completes *)
      Channel.close a;
      (* slot freed: C succeeds end to end (run_client absorbs the Busy
         window while A's session unregisters) *)
      let d = run_client ~port ~seed:"c" in
      Alcotest.(check bool) "C revealed a distance" true
        (Ppst_bigint.Bigint.compare d Ppst_bigint.Bigint.zero >= 0);
      Alcotest.(check bool) "rejection recorded" true
        (rejected () - rejected0 >= 1))

(* --- idle timeout: silent session dies, server survives ------------------- *)

let test_idle_timeout () =
  let config =
    { Server_loop.default_config with idle_timeout_s = Some 0.2 }
  in
  let on_session_end, ended = session_log () in
  let t = make_loop ~config ~on_session_end ~seed:"idle-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let silent = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request silent (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "Hello failed");
      (* ... then say nothing until the server hangs up *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        let timed_out =
          List.exists
            (fun (s : Server_loop.session) -> s.outcome = Server_loop.Idle_timeout)
            (ended ())
        in
        if timed_out then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "idle session never timed out"
        else begin
          Thread.delay 0.05;
          wait ()
        end
      in
      wait ();
      Channel.close silent;
      (* the loop survived: a fresh, active client still completes *)
      let d = run_client ~port ~seed:"after-idle" in
      Alcotest.(check bool) "server survived the timeout" true
        (Ppst_bigint.Bigint.compare d Ppst_bigint.Bigint.zero >= 0))

(* --- session deadline ------------------------------------------------------ *)

let test_deadline () =
  let config =
    { Server_loop.default_config with deadline_s = Some 0.2 }
  in
  let on_session_end, ended = session_log () in
  let t = make_loop ~config ~on_session_end ~seed:"deadline-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let ch = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "Hello failed");
      (* keep trickling requests: the per-request gaps never trip an idle
         timeout, but the overall deadline must still fire *)
      let rec trickle () =
        Thread.delay 0.05;
        match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
        | Message.Welcome _ -> trickle ()
        | _ -> ()
        | exception Channel.Protocol_error _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      trickle ();
      Channel.close ch;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        let hit =
          List.exists
            (fun (s : Server_loop.session) ->
              s.outcome = Server_loop.Deadline_exceeded)
            (ended ())
        in
        if hit then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "session deadline never fired"
        else begin
          Thread.delay 0.05;
          wait ()
        end
      in
      wait ())

(* --- idle timeout just before the deadline ---------------------------------- *)

let raw_exchange fd req =
  Channel.write_frame fd (Message.encode (Message.Request req));
  match Channel.read_frame ~deadline:(Monoclock.now () +. 5.0) fd with
  | Some frame -> (
    match Message.decode frame with
    | Message.Reply r -> r
    | Message.Request _ -> Alcotest.fail "server sent a request")
  | None -> Alcotest.fail "no reply"

let connect_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_idle_timeout_before_deadline () =
  (* the idle timer (0.3 s) is the one armed when the client goes
     silent: it must be reported as an idle timeout — parked, token
     still good — even though it fires less than idle_timeout_s before
     the session deadline (0.5 s) *)
  let config =
    { Server_loop.default_config with
      idle_timeout_s = Some 0.3;
      deadline_s = Some 0.5 }
  in
  let on_session_end, ended = session_log () in
  let t = make_loop ~config ~on_session_end ~seed:"idle-vs-deadline" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let fd = connect_raw port in
      let token =
        match raw_exchange fd (Message.Hello { flags = Message.flag_resume; spec = None }) with
        | Message.Welcome { resume_token; _ } when resume_token <> "" -> resume_token
        | _ -> Alcotest.fail "no resume token"
      in
      let rec wait tries =
        match ended () with
        | s :: _ -> s.Server_loop.outcome
        | [] when tries > 0 ->
          Thread.delay 0.01;
          wait (tries - 1)
        | [] -> Alcotest.fail "silent session never ended"
      in
      let outcome = wait 500 in
      Unix.close fd;
      Alcotest.(check bool) "outcome is Idle_timeout" true
        (outcome = Server_loop.Idle_timeout);
      Alcotest.(check int) "session parked" 1 (Server_loop.resume_parked loop);
      let fd = connect_raw port in
      Fun.protect ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match
            raw_exchange fd
              (Message.Resume { token; client_rounds = 1; flags = Message.flag_resume })
          with
          | Message.Resume_ack { server_rounds = 1; _ } -> ()
          | _ -> Alcotest.fail "parked token did not resume"))

(* --- error isolation -------------------------------------------------------- *)

let test_malformed_frame_isolated () =
  let t = make_loop ~seed:"isolation-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* hand-roll a valid frame carrying garbage: the session gets an
         in-band error reply and stays usable *)
      let ch = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "Hello failed");
      Channel.close ch;
      ignore loop;
      (* a raw socket that sends a forged length header dies alone *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd "\xFF\xFF\xFF\xFF" 0 4);
      (* server closes on us; swallow whatever the socket does *)
      (try ignore (Unix.read fd (Bytes.create 16) 0 16) with _ -> ());
      (try Unix.close fd with _ -> ());
      (* the loop is still serving *)
      let d = run_client ~port ~seed:"after-garbage" in
      Alcotest.(check bool) "server survived the bad client" true
        (Ppst_bigint.Bigint.compare d Ppst_bigint.Bigint.zero >= 0))

let () =
  Alcotest.run "concurrent"
    [
      ( "server loop",
        [
          Alcotest.test_case "parallel = sequential distances" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "busy at capacity" `Quick test_busy_at_capacity;
          Alcotest.test_case "idle timeout isolates session" `Quick
            test_idle_timeout;
          Alcotest.test_case "session deadline fires" `Quick test_deadline;
          Alcotest.test_case "idle timeout just before the deadline parks" `Quick
            test_idle_timeout_before_deadline;
          Alcotest.test_case "malformed client isolated" `Quick
            test_malformed_frame_isolated;
        ] );
    ]
