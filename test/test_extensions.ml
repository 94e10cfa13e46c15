(* Tests for the protocol extensions beyond the paper's two headline
   distances: secure ERP, Sakoe–Chiba banded DTW, lockstep Euclidean,
   sliding-window subsequence matching, and catalog-based similarity
   search over multi-record servers. *)

open Ppst.Import
module Generate = Ppst_timeseries.Generate

let eq_bi = Alcotest.testable Bigint.pp Bigint.equal

let qtest name ?(count = 15) gen ~print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let print_series s = Format.asprintf "%a" Series.pp s

let paper_x = Series.of_list [ 3; 4; 5; 4; 6; 7 ]
let paper_y = Series.of_list [ 2; 4; 6; 5; 7 ]

let gen_series_pair =
  let open QCheck2.Gen in
  let* d = int_range 1 2 in
  let mk =
    let* len = int_range 1 6 in
    let* data = list_size (return len) (list_size (return d) (int_range 0 30)) in
    return (Series.create (Array.of_list (List.map Array.of_list data)))
  in
  pair mk mk

(* --- secure ERP ------------------------------------------------------------ *)

let test_erp_paper_series () =
  List.iter
    (fun g ->
      let gap = [| g |] in
      let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~gap `Erp) ~seed:(Printf.sprintf "erp-%d" g)
          ~x:paper_x ~y:paper_y () in
      Alcotest.(check int)
        (Printf.sprintf "gap %d" g)
        (Distance.erp_sq ~gap paper_x paper_y)
        (Ppst.Protocol.distance_int r))
    [ 0; 3; 7 ]

let test_erp_identical_zero () =
  let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~gap:[| 0 |] `Erp) ~seed:"erp-id" ~x:paper_x ~y:paper_x () in
  Alcotest.(check int) "zero" 0 (Ppst.Protocol.distance_int r)

let test_erp_multidim () =
  let x = Series.create [| [| 1; 2 |]; [| 3; 4 |]; [| 5; 6 |] |] in
  let y = Series.create [| [| 2; 2 |]; [| 4; 4 |] |] in
  let gap = [| 1; 1 |] in
  let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~gap `Erp) ~seed:"erp-2d" ~x ~y () in
  Alcotest.(check int) "2-d erp" (Distance.erp_sq ~gap x y)
    (Ppst.Protocol.distance_int r)

(* Each party's value bound is max 1 (max |series|) (Protocol.run) and
   the client negotiates the larger of the two (Client.connect).  A gap
   element above it is rejected with the typed errors that
   [test_erp_gap_validation] accepts; within it the distance is the
   plaintext ERP. *)
let prop_erp_equals_plaintext =
  let gen = QCheck2.Gen.pair gen_series_pair QCheck2.Gen.(int_range 0 10) in
  qtest "secure ERP = plaintext ERP" gen
    ~print:(fun ((a, b), g) ->
      Printf.sprintf "%s / %s gap=%d" (print_series a) (print_series b) g)
    (fun ((x, y), g) ->
      let gap = Array.make (Series.dimension x) g in
      if Series.dimension x <> Series.dimension y then true
      else begin
        let run () = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~gap `Erp) ~seed:"erp-prop" ~x ~y () in
        let bound s = max 1 (Series.max_abs_value s) in
        if g <= max (bound x) (bound y) then
          Ppst.Protocol.distance_int (run ()) = Distance.erp_sq ~gap x y
        else
          match run () with
          | _ -> false
          | exception (Invalid_argument _ | Channel.Protocol_error _) -> true
      end)

let test_erp_gap_validation () =
  (* wrong dimension *)
  (match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~gap:[| 0; 0 |] `Erp) ~seed:"erp-bad" ~x:paper_x ~y:paper_y () with
   | _ -> Alcotest.fail "bad gap dimension accepted"
   | exception (Invalid_argument _ | Channel.Protocol_error _) -> ());
  (* gap outside negotiated bound *)
  (match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~gap:[| 5000 |] `Erp) ~seed:"erp-big" ~x:paper_x ~y:paper_y () with
   | _ -> Alcotest.fail "oversized gap accepted"
   | exception (Invalid_argument _ | Channel.Protocol_error _) -> ())

let test_erp_bound_larger_than_dtw () =
  let modulus = Bigint.of_string "13497220662202513373" in
  let plan d =
    (Ppst.Params.plan Ppst.Params.default ~max_value:100 ~dimension:1
       ~client_length:10 ~server_length:10 ~modulus ~distance:d)
      .Ppst.Params.value_bound
  in
  Alcotest.(check bool) "erp bound > dtw bound" true
    (Bigint.compare (plan `Erp) (plan `Dtw) > 0)

let test_erp_triangle_inequality () =
  (* the reason ERP exists: it is a metric.  Spot-check the triangle
     inequality on the sqrt scale for several secure evaluations. *)
  let a = Series.of_list [ 1; 5; 9 ] in
  let b = Series.of_list [ 2; 6; 8; 4 ] in
  let c = Series.of_list [ 3; 3 ] in
  let gap = [| 0 |] in
  let d s1 s2 seed =
    sqrt (float_of_int (Ppst.Protocol.distance_int
                          (Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~gap `Erp) ~seed ~x:s1 ~y:s2 ())))
  in
  let dab = d a b "t1" and dbc = d b c "t2" and dac = d a c "t3" in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f <= %.2f + %.2f" dac dab dbc)
    true
    (dac <= dab +. dbc +. 1e-9)

(* --- banded DTW ------------------------------------------------------------- *)

let test_banded_matches_plaintext () =
  List.iter
    (fun band ->
      let r =
        Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band `Dtw) ~seed:(Printf.sprintf "band-%d" band)
          ~x:paper_x ~y:paper_y ()
      in
      match Distance.dtw_sq_banded ~band paper_x paper_y with
      | Some plain ->
        Alcotest.(check int) (Printf.sprintf "band %d" band) plain
          (Ppst.Protocol.distance_int r)
      | None -> Alcotest.fail "plaintext says infeasible")
    [ 1; 2; 3; 10 ]

let test_banded_wide_equals_full () =
  let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band:100 `Dtw) ~seed:"band-wide" ~x:paper_x ~y:paper_y () in
  Alcotest.(check int) "wide band = dtw" (Distance.dtw_sq paper_x paper_y)
    (Ppst.Protocol.distance_int r)

let test_banded_infeasible () =
  let x = Series.of_list [ 1; 2; 3; 4; 5 ] and y = Series.of_list [ 1 ] in
  (match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band:2 `Dtw) ~seed:"band-bad" ~x ~y () with
   | _ -> Alcotest.fail "narrow band accepted"
   | exception Ppst.Secure_dp.Band_too_narrow -> ());
  (match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band:(-1) `Dtw) ~seed:"band-neg" ~x:paper_x ~y:paper_y () with
   | _ -> Alcotest.fail "negative band accepted"
   | exception Invalid_argument _ -> ())

let prop_banded_equals_plaintext =
  let gen = QCheck2.Gen.pair gen_series_pair QCheck2.Gen.(int_range 0 5) in
  qtest "secure banded DTW = plaintext" gen
    ~print:(fun ((a, b), band) ->
      Printf.sprintf "%s / %s band=%d" (print_series a) (print_series b) band)
    (fun ((x, y), band) ->
      if Series.dimension x <> Series.dimension y then true
      else begin
        match Distance.dtw_sq_banded ~band x y with
        | None -> begin
          match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band `Dtw) ~seed:"bp" ~x ~y () with
          | _ -> false
          | exception Ppst.Secure_dp.Band_too_narrow -> true
        end
        | Some plain ->
          let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band `Dtw) ~seed:"bp" ~x ~y () in
          Ppst.Protocol.distance_int r = plain
      end)

let test_banded_saves_communication () =
  let x = Generate.ecg_int ~seed:301 ~length:20 ~max_value:50 in
  let y = Generate.ecg_int ~seed:302 ~length:20 ~max_value:50 in
  let full = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"comm-full" ~x ~y () in
  let banded = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band:2 `Dtw) ~seed:"comm-band" ~x ~y () in
  Alcotest.(check int) "same distance (band covers optimum here)"
    (Ppst.Protocol.distance_int full)
    (Ppst.Protocol.distance_int banded);
  let fv = Stats.total_values full.Ppst.Protocol.stats in
  let bv = Stats.total_values banded.Ppst.Protocol.stats in
  Alcotest.(check bool)
    (Printf.sprintf "banded values %d < half of full %d" bv fv)
    true
    (bv * 2 < fv)

let test_banded_dfd_matches_plaintext () =
  List.iter
    (fun band ->
      match Distance.dfd_sq_banded ~band paper_x paper_y with
      | Some plain ->
        let r =
          Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band `Dfd) ~seed:(Printf.sprintf "dband-%d" band) ~x:paper_x ~y:paper_y ()
        in
        Alcotest.(check int) (Printf.sprintf "band %d" band) plain
          (Ppst.Protocol.distance_int r)
      | None -> Alcotest.fail "plaintext says infeasible")
    [ 1; 2; 10 ]

let prop_banded_dfd_equals_plaintext =
  let gen = QCheck2.Gen.pair gen_series_pair QCheck2.Gen.(int_range 0 5) in
  qtest "secure banded DFD = plaintext" ~count:10 gen
    ~print:(fun ((a, b), band) ->
      Printf.sprintf "%s / %s band=%d" (print_series a) (print_series b) band)
    (fun ((x, y), band) ->
      if Series.dimension x <> Series.dimension y then true
      else begin
        match Distance.dfd_sq_banded ~band x y with
        | None -> begin
          match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band `Dfd) ~seed:"dbp" ~x ~y () with
          | _ -> false
          | exception Ppst.Secure_dp.Band_too_narrow -> true
        end
        | Some plain ->
          Ppst.Protocol.distance_int
            (Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band `Dfd) ~seed:"dbp" ~x ~y ())
          = plain
      end)

let prop_banded_dfd_plaintext_wide_equals_full =
  qtest "plaintext banded DFD with wide band = DFD" ~count:50 gen_series_pair
    ~print:(fun (a, b) -> print_series a ^ " / " ^ print_series b)
    (fun (x, y) ->
      Series.dimension x <> Series.dimension y
      || Distance.dfd_sq_banded ~band:50 x y = Some (Distance.dfd_sq x y))

(* --- wavefront batching -------------------------------------------------------- *)

let test_wavefront_dtw_equals_sequential () =
  let x = Generate.ecg_int ~seed:401 ~length:12 ~max_value:50 in
  let y = Generate.ecg_int ~seed:402 ~length:9 ~max_value:50 in
  let seq = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"wf-a" ~x ~y () in
  let wf = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront `Dtw) ~seed:"wf-b" ~x ~y () in
  Alcotest.check eq_bi "same distance" seq.Ppst.Protocol.distance
    wf.Ppst.Protocol.distance;
  Alcotest.(check int) "= plaintext" (Distance.dtw_sq x y)
    (Ppst.Protocol.distance_int wf)

let test_wavefront_round_count () =
  let m = 12 and n = 9 in
  let x = Generate.ecg_int ~seed:403 ~length:m ~max_value:50 in
  let y = Generate.ecg_int ~seed:404 ~length:n ~max_value:50 in
  let seq = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"wf-c" ~x ~y () in
  let wf = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront `Dtw) ~seed:"wf-d" ~x ~y () in
  (* sequential: hello + phase1 + (m-1)(n-1) + reveal + bye *)
  Alcotest.(check int) "sequential rounds" (3 + ((m - 1) * (n - 1)) + 1)
    (Stats.rounds seq.Ppst.Protocol.stats);
  (* wavefront: hello + phase1 + (m+n-3 diagonals) + reveal + bye *)
  Alcotest.(check int) "wavefront rounds" (3 + (m + n - 3) + 1)
    (Stats.rounds wf.Ppst.Protocol.stats);
  (* identical traffic volume: batching changes framing, not content *)
  Alcotest.(check int) "same value count"
    (Stats.total_values seq.Ppst.Protocol.stats)
    (Stats.total_values wf.Ppst.Protocol.stats)

let test_wavefront_dfd_equals_sequential () =
  let x = Generate.ecg_int ~seed:405 ~length:8 ~max_value:50 in
  let y = Generate.ecg_int ~seed:406 ~length:10 ~max_value:50 in
  let wf = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront `Dfd) ~seed:"wf-e" ~x ~y () in
  Alcotest.(check int) "= plaintext" (Distance.dfd_sq x y)
    (Ppst.Protocol.distance_int wf)

let prop_wavefront_equals_plaintext =
  qtest "wavefront DTW = plaintext" gen_series_pair
    ~print:(fun (a, b) -> print_series a ^ " / " ^ print_series b)
    (fun (x, y) ->
      if Series.dimension x <> Series.dimension y then true
      else
        Ppst.Protocol.distance_int
          (Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront `Dtw) ~seed:"wf-prop" ~x ~y ())
        = Distance.dtw_sq x y)

let test_batch_message_errors () =
  let server =
    Ppst.Server.create
      ~rng:(Secure_rng.of_seed_string "batch-errors")
      ~series:(Series.of_list [ 1; 2 ])
      ~max_value:10 ()
  in
  (match Ppst.Server.handle server (Message.Batch_min_request [||]) with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "empty batch accepted");
  (match
     Ppst.Server.handle server (Message.Batch_min_request [| [| Bigint.one |] |])
   with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "singleton candidate set accepted")

(* --- euclidean & subsequence -------------------------------------------------- *)

let test_euclidean_matches_plaintext () =
  let y6 = Series.of_list [ 2; 4; 6; 5; 7; 9 ] in
  let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Euclidean) ~seed:"euc" ~x:paper_x ~y:y6 () in
  Alcotest.(check int) "euclid" (Distance.euclidean_sq paper_x y6)
    (Ppst.Protocol.distance_int r)

let test_euclidean_no_masking_rounds () =
  let y6 = Series.of_list [ 2; 4; 6; 5; 7; 9 ] in
  let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Euclidean) ~seed:"euc2" ~x:paper_x ~y:y6 () in
  (* hello + phase1 + reveal + bye = 4 rounds, no Min/Max requests *)
  Alcotest.(check int) "4 rounds only" 4 (Stats.rounds r.Ppst.Protocol.stats);
  let server = Ppst.Cost.server_ops r.Ppst.Protocol.cost in
  Alcotest.(check int) "one decryption (the reveal)" 1 server.Ppst.Cost.decryptions

let test_euclidean_length_mismatch () =
  match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Euclidean) ~seed:"euc3" ~x:paper_x ~y:(Series.of_list [ 1 ]) () with
  | _ -> Alcotest.fail "length mismatch accepted"
  | exception (Invalid_argument _ | Channel.Protocol_error _) -> ()

let test_subsequence_windows () =
  let long = Series.of_list [ 9; 9; 2; 4; 6; 5; 7; 9; 9 ] in
  let r = Ppst.Protocol.subsequence ~seed:"sub" ~x:long ~y:paper_y () in
  Alcotest.(check int) "window count" 5 (Array.length r.Ppst.Protocol.window_distances);
  Array.iteri
    (fun o d ->
      let window = Series.sub long ~pos:o ~len:(Series.length paper_y) in
      Alcotest.(check int)
        (Printf.sprintf "window %d" o)
        (Distance.euclidean_sq window paper_y)
        (Bigint.to_int_exn d))
    r.Ppst.Protocol.window_distances

let test_subsequence_query_longer_than_series () =
  match Ppst.Protocol.subsequence ~seed:"sub2" ~x:(Series.of_list [ 1 ]) ~y:paper_y () with
  | _ -> Alcotest.fail "short client series accepted"
  | exception (Invalid_argument _ | Channel.Protocol_error _) -> ()

let prop_subsequence_equals_plaintext =
  let gen =
    let open QCheck2.Gen in
    let* m = int_range 3 10 in
    let* n = int_range 1 3 in
    let* xs = list_size (return m) (int_range 0 30) in
    let* ys = list_size (return n) (int_range 0 30) in
    return (Series.of_list xs, Series.of_list ys)
  in
  qtest "subsequence windows = plaintext" gen
    ~print:(fun (a, b) -> print_series a ^ " / " ^ print_series b)
    (fun (x, y) ->
      let r = Ppst.Protocol.subsequence ~seed:"sub-prop" ~x ~y () in
      let n = Series.length y in
      Array.to_list r.Ppst.Protocol.window_distances
      |> List.mapi (fun o d ->
             Bigint.to_int_exn d
             = Distance.euclidean_sq (Series.sub x ~pos:o ~len:n) y)
      |> List.for_all Fun.id)

(* --- catalog search ----------------------------------------------------------- *)

let with_db_client ~records ~query ~distance f =
  let server =
    Ppst.Server.create_db
      ~rng:(Secure_rng.of_seed_string "db-server")
      ~records ~max_value:50 ()
  in
  let channel = Channel.local (Ppst.Server.handle server) in
  let client =
    Ppst.Client.connect ~query:true
      ~rng:(Secure_rng.of_seed_string "db-client")
      ~series:query ~max_value:50 ~distance channel
  in
  Fun.protect ~finally:(fun () -> Ppst.Client.finish client) (fun () -> f client)

let db_records =
  [|
    Series.of_list [ 40; 40; 40 ];
    Series.of_list [ 3; 4; 6; 5; 7 ];
    Series.of_list [ 10; 20 ];
    Series.of_list [ 2; 4; 6; 5; 7; 8 ];
  |]

let query = Series.of_list [ 2; 4; 6; 5; 7 ]

let test_catalog_lengths () =
  with_db_client ~records:db_records ~query ~distance:`Dtw (fun client ->
      Alcotest.(check (array int)) "lengths" [| 3; 5; 2; 6 |] (Ppst.Client.catalog client))

let scan metric client = Ppst.Query.scan ~spec:(Ppst.Protocol.spec metric) client

let test_scan_matches_plaintext () =
  with_db_client ~records:db_records ~query ~distance:`Dtw (fun client ->
      let report = scan `Dtw client in
      Alcotest.(check int) "all records" 4 (Array.length report.Ppst.Query.hits);
      Alcotest.(check int) "nothing pruned" 0 report.Ppst.Query.pruned;
      Alcotest.(check int) "every record exact" 4 report.Ppst.Query.evaluated;
      Array.iter
        (fun (r : Ppst.Query.hit) ->
          Alcotest.check eq_bi
            (Printf.sprintf "record %d" r.Ppst.Query.index)
            (Bigint.of_int (Distance.dtw_sq query db_records.(r.Ppst.Query.index)))
            r.Ppst.Query.distance)
        report.Ppst.Query.hits)

let test_nearest_and_within () =
  with_db_client ~records:db_records ~query ~distance:`Dtw (fun client ->
      let best = (scan `Dtw client).Ppst.Query.hits.(0) in
      let plain_best, plain_dist =
        Ppst_timeseries.Knn.nearest Ppst_timeseries.Knn.Dtw_sq ~query db_records
      in
      Alcotest.(check int) "winner" plain_best best.Ppst.Query.index;
      Alcotest.check eq_bi "distance" (Bigint.of_int plain_dist) best.Ppst.Query.distance;
      let close =
        Ppst.Query.within ~spec:(Ppst.Protocol.spec `Dtw) ~radius:(Bigint.of_int 10)
          client
      in
      Array.iter
        (fun (r : Ppst.Query.hit) ->
          Alcotest.(check bool) "within radius" true
            (Bigint.compare r.Ppst.Query.distance (Bigint.of_int 10) <= 0))
        close.Ppst.Query.hits;
      (* ascending order *)
      let rec ordered = function
        | (a : Ppst.Query.hit) :: ((b : Ppst.Query.hit) :: _ as rest) ->
          Bigint.compare a.Ppst.Query.distance b.Ppst.Query.distance <= 0
          && ordered rest
        | _ -> true
      in
      Alcotest.(check bool) "sorted" true
        (ordered (Array.to_list close.Ppst.Query.hits)))

let test_search_dfd_metric () =
  with_db_client ~records:db_records ~query ~distance:`Dfd (fun client ->
      let best = (scan `Dfd client).Ppst.Query.hits.(0) in
      let plain_best, _ =
        Ppst_timeseries.Knn.nearest Ppst_timeseries.Knn.Dfd_sq ~query db_records
      in
      Alcotest.(check int) "dfd winner" plain_best best.Ppst.Query.index)

let test_select_out_of_range () =
  with_db_client ~records:db_records ~query ~distance:`Dtw (fun client ->
      match Ppst.Client.select_record client 99 with
      | _ -> Alcotest.fail "bad index accepted"
      | exception Invalid_argument _ -> ())

let test_select_replans_session () =
  with_db_client ~records:db_records ~query ~distance:`Dtw (fun client ->
      Ppst.Client.select_record client 2 (* length 2 *);
      let bound_short = (Ppst.Client.session client).Ppst.Params.value_bound in
      Alcotest.(check int) "server length updated" 2 (Ppst.Client.server_length client);
      Ppst.Client.select_record client 3 (* length 6 *);
      let bound_long = (Ppst.Client.session client).Ppst.Params.value_bound in
      Alcotest.(check bool) "longer record, larger bound" true
        (Bigint.compare bound_long bound_short > 0))

let test_server_select_error_reply () =
  let server =
    Ppst.Server.create_db
      ~rng:(Secure_rng.of_seed_string "raw-server")
      ~records:db_records ~max_value:50 ()
  in
  (match Ppst.Server.handle server (Message.Select_request 42) with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "out-of-range select accepted");
  (match Ppst.Server.handle server Message.Catalog_request with
   | Message.Catalog_reply lengths ->
     Alcotest.(check int) "catalog size" 4 (Array.length lengths)
   | _ -> Alcotest.fail "no catalog")

let test_search_metric_mismatch_rejected () =
  (* a `Dfd-planned session has a smaller masking bound than DTW needs *)
  with_db_client ~records:db_records ~query ~distance:`Dfd (fun client ->
      match scan `Dtw client with
      | _ -> Alcotest.fail "metric mismatch accepted"
      | exception Invalid_argument _ -> ())

let test_drivers_reject_wrong_plan () =
  (* every driver must refuse a session planned for another distance *)
  let x = Series.of_list [ 1; 2; 3 ] and y = Series.of_list [ 2; 3 ] in
  let with_client distance f =
    let server =
      Ppst.Server.create
        ~rng:(Secure_rng.of_seed_string "plan-guard-server")
        ~series:y ~max_value:10 ()
    in
    let channel = Channel.local (Ppst.Server.handle server) in
    let client =
      Ppst.Client.connect
        ~rng:(Secure_rng.of_seed_string "plan-guard-client")
        ~series:x ~max_value:10 ~distance channel
    in
    Fun.protect ~finally:(fun () -> Ppst.Client.finish client) (fun () -> f client)
  in
  let expect_reject name f =
    match f () with
    | _ -> Alcotest.fail (name ^ " accepted a mismatched plan")
    | exception Invalid_argument _ -> ()
  in
  with_client `Euclidean (fun client ->
      let open Ppst.Secure_dp in
      List.iter
        (fun (name, rule, domain, schedule) ->
          expect_reject name (fun () -> run rule domain schedule client))
        [
          ("dtw", dtw, Full, Row_major);
          ("dfd", dfd, Full, Row_major);
          ("erp", erp ~gap:[| 0 |], Full, Row_major);
          ("banded dtw", dtw, Band 3, Row_major);
          ("wavefront dtw", dtw, Full, Anti_diagonal);
        ]);
  with_client `Dtw (fun client ->
      expect_reject "Secure_euclidean" (fun () -> Ppst.Secure_euclidean.run client))

let test_db_validation () =
  let rng = Secure_rng.of_seed_string "db-bad" in
  (match Ppst.Server.create_db ~rng ~records:[||] ~max_value:10 () with
   | _ -> Alcotest.fail "empty db accepted"
   | exception Invalid_argument _ -> ());
  let mixed = [| Series.of_list [ 1 ]; Series.create [| [| 1; 2 |] |] |] in
  (match Ppst.Server.create_db ~rng ~records:mixed ~max_value:10 () with
   | _ -> Alcotest.fail "mixed dimensions accepted"
   | exception Invalid_argument _ -> ())

let () =
  Alcotest.run "extensions"
    [
      ( "secure ERP",
        [
          Alcotest.test_case "paper series, several gaps" `Quick test_erp_paper_series;
          Alcotest.test_case "identical series" `Quick test_erp_identical_zero;
          Alcotest.test_case "multi-dimensional" `Quick test_erp_multidim;
          Alcotest.test_case "gap validation" `Quick test_erp_gap_validation;
          Alcotest.test_case "ERP bound exceeds DTW bound" `Quick
            test_erp_bound_larger_than_dtw;
          Alcotest.test_case "triangle inequality spot-check" `Quick
            test_erp_triangle_inequality;
          prop_erp_equals_plaintext;
        ] );
      ( "banded DTW",
        [
          Alcotest.test_case "matches plaintext" `Quick test_banded_matches_plaintext;
          Alcotest.test_case "wide band = full DTW" `Quick test_banded_wide_equals_full;
          Alcotest.test_case "infeasible bands" `Quick test_banded_infeasible;
          Alcotest.test_case "saves communication" `Quick test_banded_saves_communication;
          prop_banded_equals_plaintext;
          Alcotest.test_case "banded DFD matches plaintext" `Quick
            test_banded_dfd_matches_plaintext;
          prop_banded_dfd_equals_plaintext;
          prop_banded_dfd_plaintext_wide_equals_full;
        ] );
      ( "wavefront batching",
        [
          Alcotest.test_case "DTW equals sequential" `Quick
            test_wavefront_dtw_equals_sequential;
          Alcotest.test_case "round counts" `Quick test_wavefront_round_count;
          Alcotest.test_case "DFD equals sequential" `Quick
            test_wavefront_dfd_equals_sequential;
          Alcotest.test_case "malformed batches rejected" `Quick
            test_batch_message_errors;
          prop_wavefront_equals_plaintext;
        ] );
      ( "euclidean & subsequence",
        [
          Alcotest.test_case "euclidean matches plaintext" `Quick
            test_euclidean_matches_plaintext;
          Alcotest.test_case "no masking rounds" `Quick test_euclidean_no_masking_rounds;
          Alcotest.test_case "length mismatch" `Quick test_euclidean_length_mismatch;
          Alcotest.test_case "windows match plaintext" `Quick test_subsequence_windows;
          Alcotest.test_case "query longer than series" `Quick
            test_subsequence_query_longer_than_series;
          prop_subsequence_equals_plaintext;
        ] );
      ( "catalog search",
        [
          Alcotest.test_case "catalog lengths" `Quick test_catalog_lengths;
          Alcotest.test_case "scan = plaintext distances" `Quick test_scan_matches_plaintext;
          Alcotest.test_case "nearest & within" `Quick test_nearest_and_within;
          Alcotest.test_case "DFD metric" `Quick test_search_dfd_metric;
          Alcotest.test_case "select out of range" `Quick test_select_out_of_range;
          Alcotest.test_case "select re-plans session" `Quick test_select_replans_session;
          Alcotest.test_case "server-side select errors" `Quick
            test_server_select_error_reply;
          Alcotest.test_case "metric/plan mismatch rejected" `Quick
            test_search_metric_mismatch_rejected;
          Alcotest.test_case "drivers reject wrong plans" `Quick
            test_drivers_reject_wrong_plan;
          Alcotest.test_case "database validation" `Quick test_db_validation;
        ] );
    ]
