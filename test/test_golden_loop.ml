(* Golden wire transcripts of the TCP server loop: for every connection
   of a scripted or seeded scenario, the MD5 of the frames the client
   wrote and of the frames the server wrote, byte for byte (length
   headers and CRC-32 trailers included).  The loop runs with a seeded
   token generator, a fixed boot id and the default configuration, with
   one field changed only where a case needs it.

   Frames whose bytes depend on the wall clock or on the process-wide
   metrics registry (Bye_ack's server_seconds, the Stats and Metrics page
   bodies) enter the digest as their tag alone.  Everything else is
   pinned: a changed digest is a changed protocol, never a table to
   regenerate for a refactor. *)

open Ppst_transport
module Series = Ppst_timeseries.Series

let seeded = Ppst_rng.Secure_rng.of_seed_string
let series_y = Series.of_list [ 2; 4; 6; 5; 7 ]
let series_x = Series.of_list [ 3; 4; 5; 4; 6; 7 ]
let max_value = 9
let boot = "gold"

let sk =
  lazy
    (snd
       (Ppst_paillier.Paillier.keygen
          ~bits:Ppst.Params.default.Ppst.Params.key_bits
          (seeded "golden-loop/keygen")))

let handler ~id ~peer:_ =
  let server =
    Ppst.Server.create_with_key ~sk:(Lazy.force sk)
      ~rng:(seeded (Printf.sprintf "golden-loop/session-%d" id))
      ~series:series_y ~max_value ()
  in
  Server_loop.respond_only (Ppst.Server.handle server)

let with_loop ?(config = Server_loop.default_config) f =
  let loop =
    Server_loop.create ~config ~rng:(seeded "golden-loop/tokens") ~boot_id:boot
      ~port:0 ~handler ()
  in
  let runner = Thread.create (fun () -> Server_loop.run loop) () in
  Fun.protect
    ~finally:(fun () ->
      Server_loop.shutdown loop;
      Thread.join runner)
    (fun () -> f loop)

let rec wait_until ?(tries = 250) what cond =
  if not (cond ()) then
    if tries = 0 then Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Thread.delay 0.02;
      wait_until ~tries:(tries - 1) what cond
    end

(* --- digests ----------------------------------------------------------------- *)

let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let wall_clock_tags =
  [ Message.tag_bye_ack; Message.tag_stats_reply; Message.tag_metrics_reply ]

(* Split a byte stream into its frames; a torn tail is kept as is. *)
let frames stream =
  let n = String.length stream in
  let rec go off acc =
    if off >= n then List.rev acc
    else if n - off < 4 then List.rev (String.sub stream off (n - off) :: acc)
    else
      let len = Char.code stream.[off] lsl 24 lor (Char.code stream.[off + 1] lsl 16)
                lor (Char.code stream.[off + 2] lsl 8) lor Char.code stream.[off + 3]
      in
      let len = min len (n - off - 4) in
      go (off + 4 + len) (String.sub stream off (4 + len) :: acc)
  in
  go 0 []

let tag frame = if String.length frame > 4 then Char.code frame.[4] else -1

let normalize ~server stream =
  frames stream
  |> List.map (fun f ->
         if server && List.mem (tag f) wall_clock_tags then
           Printf.sprintf "<tag %02x>" (tag f)
         else f)
  |> String.concat ""

let digest ~server stream = Digest.to_hex (Digest.string (normalize ~server stream))
let tags stream = List.map (fun f -> Printf.sprintf "%02x" (tag f)) (frames stream)

(* One connection's record: label, bytes the client wrote, bytes the
   server wrote. *)
type conn_record = { label : string; client : string; server : string }

(* --- scripted connections ------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; sent : Buffer.t; got : Buffer.t; clabel : string }

let open_conn ~port label =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; sent = Buffer.create 256; got = Buffer.create 256; clabel = label }

let send_raw ?(crc = false) c payload =
  Channel.write_frame ~crc c.fd payload;
  Buffer.add_string c.sent
    (if crc then
       let d = Crc32.digest payload in
       u32 (String.length payload + 4) ^ payload ^ u32 d
     else u32 (String.length payload) ^ payload)

let send c req = send_raw c (Message.encode (Message.Request req))

(* The raw body the server wrote (no CRC check: a trailer stays in). *)
let recv_raw c =
  match Channel.read_frame ~deadline:(Monoclock.now () +. 5.0) c.fd with
  | None -> None
  | Some body ->
    Buffer.add_string c.got (u32 (String.length body) ^ body);
    Some body
  | exception (Channel.Connection_lost _ | Channel.Timeout) -> None

let recv c =
  match recv_raw c with
  | Some body -> (
    match Message.decode body with
    | Message.Reply r -> r
    | Message.Request _ -> Alcotest.fail "server wrote a request")
  | None -> Alcotest.fail (c.clabel ^ ": connection closed before a reply")

let expect_eof c =
  match recv_raw c with
  | None -> ()
  | Some _ -> Alcotest.fail (c.clabel ^ ": expected the server to hang up")

let finish c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  { label = c.clabel; client = Buffer.contents c.sent; server = Buffer.contents c.got }

(* --- recording relay for full client sessions ---------------------------------- *)

(* Forward one client connection to the loop, keeping a copy of each
   direction.  [collect] waits for both directions to reach EOF. *)
let relay ~to_port =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let up = Buffer.create 4096 and down = Buffer.create 4096 in
  let pump src dst buf =
    let chunk = Bytes.create 65536 in
    let rec go () =
      match Unix.read src chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        let rec write off =
          if off < n then write (off + Unix.write dst chunk off (n - off))
        in
        write 0;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    (try go () with Unix.Unix_error _ -> ());
    try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()
  in
  let worker =
    Thread.create
      (fun () ->
        let client, _ = Unix.accept listener in
        Unix.close listener;
        let server = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect server (Unix.ADDR_INET (Unix.inet_addr_loopback, to_port));
        List.iter (fun fd -> Unix.setsockopt fd Unix.TCP_NODELAY true) [ client; server ];
        let upward = Thread.create (fun () -> pump client server up) () in
        pump server client down;
        Thread.join upward;
        Unix.close client;
        Unix.close server)
      ()
  in
  let collect label =
    Thread.join worker;
    { label; client = Buffer.contents up; server = Buffer.contents down }
  in
  (port, collect)

let pair_session ~crc ~resume loop =
  let port, collect = relay ~to_port:(Server_loop.port loop) in
  let channel = Channel.connect ~crc ~resume ~host:"127.0.0.1" ~port () in
  let client =
    Ppst.Client.connect ~rng:(seeded "golden-loop/client") ~series:series_x
      ~max_value ~distance:`Dtw channel
  in
  let d = Ppst.Secure_dp.(run dtw Full Row_major) client in
  Ppst.Client.finish client;
  Alcotest.(check int) "distance = plaintext DTW"
    (Ppst_timeseries.Distance.dtw_sq series_x series_y)
    (Ppst_bigint.Bigint.to_int_exn d);
  let flags = Channel.negotiated_flags channel in
  let want = (if crc then Message.flag_crc32 else 0) lor if resume then Message.flag_resume else 0 in
  Alcotest.(check int) "granted flags" want (flags land (Message.flag_crc32 lor Message.flag_resume));
  [ collect "session" ]

(* The same session while the metrics sidecar is scraped in a loop: a
   scrape reads the registry and writes nothing to a session socket. *)
let scraped_pair_session loop =
  let endpoint = Metrics_endpoint.start ~port:0 () in
  let stop = Atomic.make false and pages = Atomic.make 0 in
  let scrape () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Metrics_endpoint.port endpoint));
        let get = "GET /metrics HTTP/1.0\r\n\r\n" in
        ignore (Unix.write_substring fd get 0 (String.length get));
        let chunk = Bytes.create 65536 in
        while Unix.read fd chunk 0 (Bytes.length chunk) > 0 do () done)
  in
  let scraper =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          scrape ();
          Atomic.incr pages;
          Thread.delay 0.005
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join scraper;
      Metrics_endpoint.stop endpoint)
    (fun () ->
      wait_until "a first scrape" (fun () -> Atomic.get pages > 0);
      pair_session ~crc:false ~resume:false loop)

(* --- scenarios ------------------------------------------------------------------ *)

let hello ?spec flags = Message.Hello { flags; spec }

let welcome_token = function
  | Message.Welcome { resume_token; _ } -> resume_token
  | _ -> Alcotest.fail "expected Welcome"

let settled loop () =
  Server_loop.resume_parked loop = 1 && Server_loop.active_sessions loop = 0

let resume_scenario loop =
  let port = Server_loop.port loop in
  let c1 = open_conn ~port "hello" in
  send c1 (hello Message.flag_resume);
  let token = welcome_token (recv c1) in
  send c1 Message.Phase1_request;
  ignore (recv c1);
  let r1 = finish c1 in
  wait_until "the first park" (settled loop);
  (* two replies seen, two replies sent: nothing to replay *)
  let c2 = open_conn ~port "resume in sync" in
  send c2 (Message.Resume { token; client_rounds = 2; flags = Message.flag_resume });
  (match recv c2 with
   | Message.Resume_ack { server_rounds = 2; reply = ""; _ } -> ()
   | _ -> Alcotest.fail "in-sync resume not acknowledged empty");
  send c2 Message.Health_req;
  ignore (recv c2);
  let r2 = finish c2 in
  wait_until "the second park" (settled loop);
  (* the Health_reply was sent but claimed unseen: it is replayed *)
  let c3 = open_conn ~port "resume one behind" in
  send c3 (Message.Resume { token; client_rounds = 2; flags = Message.flag_resume });
  (match recv c3 with
   | Message.Resume_ack { server_rounds = 3; reply; _ } when reply <> "" -> ()
   | _ -> Alcotest.fail "lagging resume got no replay");
  send c3 Message.Bye;
  ignore (recv c3);
  expect_eof c3;
  let r3 = finish c3 in
  let c4 = open_conn ~port "forged token" in
  send c4
    (Message.Resume
       { token = boot ^ String.make 12 '\x5a'; client_rounds = 0; flags = Message.flag_resume });
  ignore (recv c4);
  let r4 = finish c4 in
  let c5 = open_conn ~port "other boot id" in
  send c5
    (Message.Resume
       { token = "prev" ^ String.sub token 4 12; client_rounds = 3; flags = Message.flag_resume });
  (match recv c5 with
   | Message.Resume_reject { reason } when Channel.is_server_restarted reason -> ()
   | _ -> Alcotest.fail "stale boot id not refused as a restart");
  let r5 = finish c5 in
  [ r1; r2; r3; r4; r5 ]

let quota_scenario loop =
  let c = open_conn ~port:(Server_loop.port loop) "hello over max_series_len" in
  send c (hello ~spec:{ Message.series_len = 6; dimension = 1 } 0);
  (match recv c with
   | Message.Quota_exceeded { quota = "series-len"; _ } -> ()
   | _ -> Alcotest.fail "oversized Hello not refused");
  expect_eof c;
  [ finish c ]

let in_band_scenario loop =
  let port = Server_loop.port loop in
  let malformed = open_conn ~port "malformed request" in
  send malformed (hello 0);
  ignore (recv malformed);
  send_raw malformed "\xff\x01\x02";
  (match recv malformed with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "malformed request not answered in band");
  send malformed Message.Bye;
  ignore (recv malformed);
  expect_eof malformed;
  let crc = open_conn ~port "unnegotiated crc trailer" in
  send crc (hello 0);
  ignore (recv crc);
  send_raw ~crc:true crc (Message.encode (Message.Request Message.Health_req));
  (match recv crc with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "CRC trailer without the grant not refused");
  expect_eof crc;
  let metrics = open_conn ~port "metrics without the grant" in
  send metrics (hello Message.flag_resume);
  ignore (recv metrics);
  send metrics Message.Metrics_req;
  (match recv metrics with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "ungranted Metrics_req answered");
  send metrics Message.Bye;
  ignore (recv metrics);
  expect_eof metrics;
  List.map finish [ malformed; crc; metrics ]

let capacity_scenario loop =
  let port = Server_loop.port loop in
  let holder = open_conn ~port "session holding the slot" in
  send holder (hello 0);
  ignore (recv holder);
  let probe = open_conn ~port "health probe" in
  send probe Message.Health_req;
  (match recv probe with
   | Message.Health_reply { status = 1; _ } -> ()
   | _ -> Alcotest.fail "probe at capacity not answered");
  send probe Message.Bye;
  ignore (recv probe);
  expect_eof probe;
  let refused = open_conn ~port "hello at capacity" in
  send refused (hello 0);
  (match recv refused with
   | Message.Busy _ -> ()
   | _ -> Alcotest.fail "Hello at capacity not answered Busy");
  expect_eof refused;
  send holder Message.Bye;
  ignore (recv holder);
  expect_eof holder;
  List.map finish [ holder; probe; refused ]

let config_with f = f Server_loop.default_config

let scenarios =
  [
    ("pair, crc and resume granted", None, pair_session ~crc:true ~resume:true);
    ("pair, flags 0", None, pair_session ~crc:false ~resume:false);
    ("pair, flags 0, metrics endpoint scraped", None, scraped_pair_session);
    ("resume in sync, behind, forged, stale", None, resume_scenario);
    ( "hello over max_series_len",
      Some
        (config_with (fun c ->
             { c with
               Server_loop.admission =
                 { Admission.unlimited with Admission.max_series_len = Some 4 } })),
      quota_scenario );
    ("malformed, crc trailer, metrics ungranted", None, in_band_scenario);
    ( "probe and busy at max_sessions 1",
      Some (config_with (fun c -> { c with Server_loop.max_sessions = 1 })),
      capacity_scenario );
  ]

(* scenario -> per connection: label, client MD5, server MD5 *)
let table =
  [
    ( "pair, crc and resume granted",
      [
        ("session",
         "4ef08b85f9ad51e2a9cf1ad73026f298", "7911fef3b6b6e8f0b9cbf2f7d02e6a49");
      ] );
    ( "pair, flags 0",
      [
        ("session",
         "39146cf5d036fb885cb5410751a01141", "6fbebaf623dd194845ce9f1a2c3f2320");
      ] );
    ( "resume in sync, behind, forged, stale",
      [
        ("hello",
         "3fc9ac9b42c3da957c3c9e632fa50933", "9f4a7338ebc05986d125ead9da8386aa");
        ("resume in sync",
         "bbb43f09c3c1ef46a1101619dfd975cb", "2371c08da4d55b376a97188a438cf621");
        ("resume one behind",
         "6c81b43aa869a38a11cef2411a7f081a", "c62d04417ac5457a3e44c998c0e8dd4f");
        ("forged token",
         "5300dd3508108081d925353320bc0b18", "4c3efcc96dd12830bb5e5bfa76b377e1");
        ("other boot id",
         "3cf8858ee06b3b650206cc2c0d60154b", "f60efd68c289e8f39224c667599059a7");
      ] );
    ( "hello over max_series_len",
      [
        ("hello over max_series_len",
         "d7f6b08b62c5f0edb1156062a813f6b5", "59e37ecfa1fb4cffac63c6f25ef5fd79");
      ] );
    ( "malformed, crc trailer, metrics ungranted",
      [
        ("malformed request",
         "bf2f11e2d33132896c3346148f76947e", "13c8e804afa9a000f86b1106edef6765");
        ("unnegotiated crc trailer",
         "f51f8cba95367ac3739b2479c8b4c062", "898fe76991adee0e2f808bc3f67c6e47");
        ("metrics without the grant",
         "e27c85dec0fc58361bab8dc083a2de84", "f9ced4e694ba9f4fcbf421bac0c94aa2");
      ] );
    ( "probe and busy at max_sessions 1",
      [
        ("session holding the slot",
         "cc918bff8ce9cae450aab983b944e586", "31f5594bb243fa0526419fa81e9f69ec");
        ("health probe",
         "9a23fd546c5e4a2608b12060bb4af124", "5ef012d5298ce2d83d3521767b7f2437");
        ("hello at capacity",
         "b334c8df9a74f7b68cb7cfb8ffe6705f", "9819ff590ac63e964b55049113300a60");
      ] );
  ]

(* A scenario that must leave the wire exactly as another one does is
   checked against that scenario's row. *)
let row_of = function
  | "pair, flags 0, metrics endpoint scraped" -> "pair, flags 0"
  | name -> name

let check_scenario (name, config, run) =
  Alcotest.test_case name `Quick (fun () ->
      let records = with_loop ?config run in
      let expected = List.assoc (row_of name) table in
      Alcotest.(check (list string)) "connections"
        (List.map (fun (l, _, _) -> l) expected)
        (List.map (fun r -> r.label) records);
      List.iter2
        (fun (label, client_md5, server_md5) r ->
          let where side =
            Printf.sprintf "%s: %s frames (tags %s)" label side
              (String.concat " " (tags (if side = "client" then r.client else r.server)))
          in
          Alcotest.(check string) (where "client") client_md5 (digest ~server:false r.client);
          Alcotest.(check string) (where "server") server_md5 (digest ~server:true r.server))
        expected records)

let () = Alcotest.run "golden-loop" [ ("transcripts", List.map check_scenario scenarios) ]
