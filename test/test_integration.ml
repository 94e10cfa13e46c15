(* Integration tests: the full protocol over a real TCP socket with the
   server in a separate thread, key persistence through files, CSV-driven
   workloads end to end, and multi-session behaviour — i.e. everything
   the bin/ deployment relies on, without spawning processes. *)

open Ppst.Import
module Generate = Ppst_timeseries.Generate
module Csv = Ppst_timeseries.Csv

let next_port =
  let counter = ref 0 in
  fun () ->
    incr counter;
    18900 + !counter

let run_over_tcp ?(params = Ppst.Params.default) ~(distance : [ `Dtw | `Dfd ]) ~x ~y
    ~seed () =
  let port = next_port () in
  let server_rng = Secure_rng.of_seed_string (seed ^ "/server") in
  let max_value_y = Stdlib.max 1 (Series.max_abs_value y) in
  let server = Ppst.Server.create ~params ~rng:server_rng ~series:y ~max_value:max_value_y () in
  let server_thread =
    Thread.create
      (fun () -> Channel.serve_once ~port ~handler:(Ppst.Server.handle server) ())
      ()
  in
  Thread.delay 0.15;
  let channel = Channel.connect ~host:"127.0.0.1" ~port () in
  let client_rng = Secure_rng.of_seed_string (seed ^ "/client") in
  let max_value_x = Stdlib.max 1 (Series.max_abs_value x) in
  let client =
    Ppst.Client.connect ~params ~rng:client_rng ~series:x ~max_value:max_value_x
      ~distance:(distance :> Ppst.Client.distance_kind)
      channel
  in
  let dist = Ppst.Protocol.runner_of_spec (Ppst.Protocol.spec (distance :> Ppst.Protocol.algo)) client in
  Ppst.Client.finish client;
  Thread.join server_thread;
  (dist, Channel.stats channel)

let test_tcp_dtw_matches_plaintext () =
  let x = Generate.ecg_int ~seed:21 ~length:12 ~max_value:50 in
  let y = Generate.ecg_int ~seed:22 ~length:10 ~max_value:50 in
  let dist, stats = run_over_tcp ~distance:`Dtw ~x ~y ~seed:"tcp-dtw" () in
  Alcotest.(check int) "tcp = plaintext" (Distance.dtw_sq x y) (Bigint.to_int_exn dist);
  Alcotest.(check bool) "bytes flowed" true (Stats.total_bytes stats > 1000)

let test_tcp_dfd_matches_plaintext () =
  let x = Generate.signature_int ~seed:23 ~length:8 ~max_value:40 in
  let y = Generate.signature_int ~seed:24 ~length:7 ~max_value:40 in
  let dist, _ = run_over_tcp ~distance:`Dfd ~x ~y ~seed:"tcp-dfd" () in
  Alcotest.(check int) "tcp dfd = plaintext" (Distance.dfd_sq x y)
    (Bigint.to_int_exn dist)

let test_tcp_matches_local_channel () =
  (* byte-for-byte identical accounting between local and TCP transports *)
  let x = Series.of_list [ 5; 10; 15; 20 ] and y = Series.of_list [ 7; 14; 21 ] in
  let tcp_dist, tcp_stats = run_over_tcp ~distance:`Dtw ~x ~y ~seed:"parity" () in
  let local = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"parity-local" ~x ~y () in
  Alcotest.(check int) "same distance" (Bigint.to_int_exn local.Ppst.Protocol.distance)
    (Bigint.to_int_exn tcp_dist);
  (* values (not bytes: bigint payload sizes vary with randomness) *)
  Alcotest.(check int) "same value count"
    (Stats.total_values local.Ppst.Protocol.stats)
    (Stats.total_values tcp_stats);
  Alcotest.(check int) "same rounds"
    (Stats.rounds local.Ppst.Protocol.stats)
    (Stats.rounds tcp_stats)

let run_custom_over_tcp ~distance ~runner ~x ~y ~seed () =
  let port = next_port () in
  let server_rng = Secure_rng.of_seed_string (seed ^ "/server") in
  let maxv s = Stdlib.max 1 (Series.max_abs_value s) in
  let server = Ppst.Server.create ~rng:server_rng ~series:y ~max_value:(maxv y) () in
  let server_thread =
    Thread.create
      (fun () -> Channel.serve_once ~port ~handler:(Ppst.Server.handle server) ())
      ()
  in
  Thread.delay 0.15;
  let channel = Channel.connect ~host:"127.0.0.1" ~port () in
  let client =
    Ppst.Client.connect
      ~rng:(Secure_rng.of_seed_string (seed ^ "/client"))
      ~series:x ~max_value:(maxv x) ~distance channel
  in
  let result = runner client in
  Ppst.Client.finish client;
  Thread.join server_thread;
  result

let test_tcp_wavefront () =
  let x = Generate.ecg_int ~seed:25 ~length:10 ~max_value:50 in
  let y = Generate.ecg_int ~seed:26 ~length:11 ~max_value:50 in
  let dist =
    run_custom_over_tcp ~distance:`Dtw ~runner:Ppst.Secure_dp.(run dtw Full Anti_diagonal)
      ~x ~y ~seed:"tcp-wavefront" ()
  in
  Alcotest.(check int) "wavefront over tcp" (Distance.dtw_sq x y)
    (Bigint.to_int_exn dist)

let test_tcp_erp () =
  let x = Generate.ecg_int ~seed:27 ~length:7 ~max_value:40 in
  let y = Generate.ecg_int ~seed:28 ~length:8 ~max_value:40 in
  let gap = [| 0 |] in
  let dist =
    run_custom_over_tcp ~distance:`Erp ~runner:(Ppst.Secure_dp.(run (erp ~gap) Full Row_major)) ~x ~y
      ~seed:"tcp-erp" ()
  in
  Alcotest.(check int) "erp over tcp" (Distance.erp_sq ~gap x y)
    (Bigint.to_int_exn dist)

(* The engine combinations no per-distance driver ever had — banded
   wavefront DTW/DFD and wavefront ERP — against the real serving loop. *)
let test_engine_over_server_loop () =
  let module Server_loop = Ppst_transport.Server_loop in
  let x = Generate.ecg_int ~seed:29 ~length:9 ~max_value:40 in
  let y = Generate.ecg_int ~seed:30 ~length:8 ~max_value:40 in
  let _pk, sk = Paillier.keygen ~bits:64 (Secure_rng.of_seed_string "loop-engine/key") in
  let loop =
    Server_loop.create ~port:0
      ~handler:(fun ~id ~peer:_ ->
        Server_loop.respond_only
          (Ppst.Server.handle
             (Ppst.Server.create_with_key ~sk
                ~rng:(Secure_rng.of_seed_string (Printf.sprintf "loop-engine/%d" id))
                ~series:y ~max_value:40 ())))
      ()
  in
  let runner = Thread.create Server_loop.run loop in
  Fun.protect
    ~finally:(fun () ->
      Server_loop.shutdown loop;
      Thread.join runner)
  @@ fun () ->
  let gap = [| 0 |] in
  List.iter
    (fun (name, spec, expected) ->
      let channel = Channel.connect ~host:"127.0.0.1" ~port:(Server_loop.port loop) () in
      let client =
        Ppst.Client.connect
          ~rng:(Secure_rng.of_seed_string ("loop-engine/" ^ name))
          ~series:x ~max_value:40 ~distance:spec.Ppst.Protocol.algo channel
      in
      let dist = Ppst.Protocol.runner_of_spec spec client in
      Ppst.Client.finish client;
      Alcotest.(check int) name expected (Bigint.to_int_exn dist))
    [
      ( "banded wavefront DTW",
        Ppst.Protocol.spec ~band:2 ~strategy:`Wavefront `Dtw,
        Option.get (Distance.dtw_sq_banded ~band:2 x y) );
      ( "banded wavefront DFD",
        Ppst.Protocol.spec ~band:2 ~strategy:`Wavefront `Dfd,
        Option.get (Distance.dfd_sq_banded ~band:2 x y) );
      ( "wavefront ERP",
        Ppst.Protocol.spec ~gap ~strategy:`Wavefront `Erp,
        Distance.erp_sq ~gap x y );
    ]

let test_key_file_workflow () =
  (* keygen -> save -> load -> serve: what bin/ppst_keygen + ppst_server do *)
  let rng = Secure_rng.of_seed_string "keyfile-test" in
  let _pk, sk = Paillier.keygen ~bits:64 rng in
  let path = Filename.temp_file "ppst_key" ".key" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Paillier.private_key_to_string sk);
      close_out oc;
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let _pk', sk' = Paillier.private_key_of_string text in
      let y = Series.of_list [ 1; 2; 3 ] in
      let server =
        Ppst.Server.create_with_key ~sk:sk'
          ~rng:(Secure_rng.of_seed_string "keyfile-server")
          ~series:y ~max_value:10 ()
      in
      let channel = Channel.local (Ppst.Server.handle server) in
      let client =
        Ppst.Client.connect
          ~rng:(Secure_rng.of_seed_string "keyfile-client")
          ~series:(Series.of_list [ 2; 3; 4 ])
          ~max_value:10 ~distance:`Dtw channel
      in
      let dist = Ppst.Secure_dp.(run dtw Full Row_major) client in
      Ppst.Client.finish client;
      Alcotest.(check int) "distance with loaded key"
        (Distance.dtw_sq (Series.of_list [ 2; 3; 4 ]) y)
        (Bigint.to_int_exn dist))

let test_csv_workload_end_to_end () =
  (* datagen-style workflow: generate, persist, reload, compare securely *)
  let a = Generate.trajectory_int ~seed:31 ~length:9 ~max_value:60 in
  let b = Generate.trajectory_int ~seed:32 ~length:9 ~max_value:60 in
  let pa = Filename.temp_file "ppst_a" ".csv" and pb = Filename.temp_file "ppst_b" ".csv" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove pa;
      Sys.remove pb)
    (fun () ->
      Csv.save pa a;
      Csv.save pb b;
      let a' = Csv.load pa and b' = Csv.load pb in
      let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"csv-e2e" ~x:a' ~y:b' () in
      Alcotest.(check int) "reloaded data" (Distance.dtw_sq a b)
        (Ppst.Protocol.distance_int r))

let test_sequential_sessions_one_server () =
  (* the nearest-neighbour pattern: many client sessions against one
     long-lived server state (fresh channel each, same key) *)
  let server_rng = Secure_rng.of_seed_string "multi-session-server" in
  let y = Generate.ecg_int ~seed:41 ~length:10 ~max_value:50 in
  let server = Ppst.Server.create ~rng:server_rng ~series:y ~max_value:50 () in
  let queries =
    List.init 3 (fun i -> Generate.ecg_int ~seed:(50 + i) ~length:8 ~max_value:50)
  in
  List.iteri
    (fun i x ->
      let channel = Channel.local (Ppst.Server.handle server) in
      let client =
        Ppst.Client.connect
          ~rng:(Secure_rng.of_seed_string (Printf.sprintf "msc-%d" i))
          ~series:x ~max_value:50 ~distance:`Dtw channel
      in
      let dist = Ppst.Secure_dp.(run dtw Full Row_major) client in
      Ppst.Client.finish client;
      Alcotest.(check int)
        (Printf.sprintf "session %d" i)
        (Distance.dtw_sq x y) (Bigint.to_int_exn dist))
    queries;
  Alcotest.(check int) "three reveals counted" 3 (Ppst.Server.reveal_count server)

let test_both_distances_same_session_params () =
  (* DFD immediately after DTW on the same data, fresh sessions *)
  let x = Generate.ecg_int ~seed:61 ~length:9 ~max_value:40 in
  let y = Generate.ecg_int ~seed:62 ~length:11 ~max_value:40 in
  let dtw = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"both-1" ~x ~y () in
  let dfd = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dfd) ~seed:"both-2" ~x ~y () in
  Alcotest.(check int) "dtw" (Distance.dtw_sq x y) (Ppst.Protocol.distance_int dtw);
  Alcotest.(check int) "dfd" (Distance.dfd_sq x y) (Ppst.Protocol.distance_int dfd);
  Alcotest.(check bool) "dfd <= dtw" true
    (Ppst.Protocol.distance_int dfd <= Ppst.Protocol.distance_int dtw)

let test_secure_knn_agrees_with_plaintext () =
  (* the ecg_matching example's core claim, as a test *)
  let db = Array.init 4 (fun i -> Generate.ecg_int ~seed:(70 + i) ~length:8 ~max_value:50) in
  let query = Generate.ecg_int ~seed:71 ~length:8 ~max_value:50 in
  let secure_best = ref (-1) and secure_dist = ref max_int in
  Array.iteri
    (fun i record ->
      let r =
        Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:(Printf.sprintf "knn-%d" i) ~max_value:50
          ~x:query ~y:record ()
      in
      let d = Ppst.Protocol.distance_int r in
      if d < !secure_dist then begin
        secure_dist := d;
        secure_best := i
      end)
    db;
  let plain_best, plain_dist =
    Ppst_timeseries.Knn.nearest Ppst_timeseries.Knn.Dtw_sq ~query db
  in
  Alcotest.(check int) "same winner" plain_best !secure_best;
  Alcotest.(check int) "same distance" plain_dist !secure_dist

let () =
  Alcotest.run "integration"
    [
      ( "tcp",
        [
          Alcotest.test_case "secure DTW over sockets" `Quick test_tcp_dtw_matches_plaintext;
          Alcotest.test_case "secure DFD over sockets" `Quick test_tcp_dfd_matches_plaintext;
          Alcotest.test_case "tcp/local parity" `Quick test_tcp_matches_local_channel;
          Alcotest.test_case "wavefront over sockets" `Quick test_tcp_wavefront;
          Alcotest.test_case "ERP over sockets" `Quick test_tcp_erp;
          Alcotest.test_case "engine combinations over Server_loop" `Quick
            test_engine_over_server_loop;
        ] );
      ( "deployment workflows",
        [
          Alcotest.test_case "key file round trip" `Quick test_key_file_workflow;
          Alcotest.test_case "CSV workload" `Quick test_csv_workload_end_to_end;
          Alcotest.test_case "sequential sessions" `Quick test_sequential_sessions_one_server;
          Alcotest.test_case "both distances" `Quick test_both_distances_same_session_params;
          Alcotest.test_case "secure kNN = plaintext kNN" `Slow
            test_secure_knn_agrees_with_plaintext;
        ] );
    ]
