(* Tests for the 1-vs-N catalog subsystem: the persistent series store,
   the gap-sum lower bound (plaintext soundness and the secure pruning
   round built on it), the query engine's no-false-dismissal guarantee,
   the generalized admission ledger, the new wire messages, and the
   closed-form cost model. *)

open Ppst.Import
module Store = Ppst_catalog.Store
module Lower_bound = Ppst_timeseries.Lower_bound
module Paa = Ppst_timeseries.Paa
module Admission = Ppst_transport.Admission

let qtest name ?(count = 15) gen ~print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

(* --- the store ------------------------------------------------------------- *)

let test_store_basics () =
  let t = Store.create () in
  Alcotest.(check int) "empty" 0 (Store.length t);
  Alcotest.(check (option int)) "no dimension" None (Store.dimension t);
  Store.insert t ~id:"b" (Series.of_list [ 1; 2; 3 ]);
  Store.insert t ~id:"a" (Series.of_list [ 4; 5 ]);
  Alcotest.(check (array string))
    "insertion order" [| "b"; "a" |] (Store.ids t);
  Alcotest.(check (array int)) "lengths" [| 3; 2 |] (Store.lengths t);
  Alcotest.(check (option int)) "dimension" (Some 1) (Store.dimension t);
  Alcotest.(check int) "max abs" 5 (Store.max_abs_value t);
  Alcotest.(check bool) "mem" true (Store.mem t ~id:"a");
  (match Store.find t ~id:"b" with
  | Some s -> Alcotest.(check int) "found series" 3 (Series.length s)
  | None -> Alcotest.fail "find b");
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Store.insert: duplicate id \"a\"") (fun () ->
      Store.insert t ~id:"a" (Series.of_list [ 9 ]));
  (try
     Store.insert t ~id:"c" (Series.create [| [| 1; 2 |] |]);
     Alcotest.fail "dimension mismatch admitted"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "evict" true (Store.evict t ~id:"b");
  Alcotest.(check bool) "evict gone" false (Store.evict t ~id:"b");
  Alcotest.(check (array string)) "order after evict" [| "a" |] (Store.ids t)

let test_store_dir_round_trip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppst-store-%d" (Unix.getpid ()))
  in
  let t = Store.generate ~seed:7 ~count:8 ~length:12 ~dim:2 ~max_value:50 in
  Store.save_dir t dir;
  let u = Store.load_dir dir in
  Alcotest.(check (array string)) "ids" (Store.ids t) (Store.ids u);
  Array.iteri
    (fun i r ->
      if not (Series.equal r (Store.records u).(i)) then
        Alcotest.fail (Printf.sprintf "record %d differs after round trip" i))
    (Store.records t);
  Array.iter
    (fun id -> Sys.remove (Filename.concat dir (id ^ ".csv")))
    (Store.ids t);
  Sys.rmdir dir

(* --- the gap-sum lower bound ----------------------------------------------- *)

let gen_equal_pair =
  let open QCheck2.Gen in
  let* d = int_range 1 2 in
  let* len = int_range 1 10 in
  let mk =
    let* data = list_size (return len) (list_size (return d) (int_range 0 30)) in
    return (Series.create (Array.of_list (List.map Array.of_list data)))
  in
  pair mk mk

let print_pair (x, y) =
  Format.asprintf "%a vs %a" Series.pp x Series.pp y

let test_segment_bounds_brute =
  let gen =
    QCheck2.Gen.(triple gen_equal_pair (int_range 1 10) (int_range 0 4))
  in
  qtest "segment bounds match brute force" ~count:50 gen
    ~print:(fun ((x, _), segments, band) ->
      Printf.sprintf "%s segments=%d band=%d"
        (Format.asprintf "%a" Series.pp x)
        segments band)
    (fun ((x, _), segments, band) ->
      let n = Series.length x and d = Series.dimension x in
      let segments = 1 + (segments mod n) in
      let lo, hi = Lower_bound.segment_bounds ~segments ~band:(Some band) x in
      let ok = ref true in
      for s = 0 to segments - 1 do
        let a = Paa.frame_bounds ~segments ~length:n s
        and b = Paa.frame_bounds ~segments ~length:n (s + 1) in
        let ja = Stdlib.max 0 (a - band)
        and jb = Stdlib.min (n - 1) (b - 1 + band) in
        for l = 0 to d - 1 do
          let mn = ref max_int and mx = ref min_int in
          for j = ja to jb do
            let v = (Series.get x j).(l) in
            if v < !mn then mn := v;
            if v > !mx then mx := v
          done;
          if lo.(s).(l) <> !mn || hi.(s).(l) <> !mx then ok := false
        done
      done;
      !ok)

(* G^2 <= c_f * D for every distance the pruning stage covers: a
   violation would mean a secure query could dismiss a true neighbour. *)
let test_gap_sum_soundness =
  let gen = QCheck2.Gen.(triple gen_equal_pair (int_range 1 8) (int_range 0 4)) in
  qtest "gap-sum soundness (no false dismissals)" ~count:100 gen
    ~print:(fun (p, segments, band) ->
      Printf.sprintf "%s segments=%d band=%d" (print_pair p) segments band)
    (fun ((x, y), segments, band) ->
      let m = Series.length x and d = Series.dimension x in
      let segments = 1 + (segments mod m) in
      let dm = d * m in
      let check ~band g =
        let g2 = g * g in
        let sound_dtw =
          match band with
          | None -> g2 <= dm * Distance.dtw_sq x y
          | Some 0 -> g2 <= dm * Distance.euclidean_sq x y
          | Some b -> (
            match Distance.dtw_sq_banded ~band:b x y with
            | None -> true
            | Some dist -> g2 <= dm * dist)
        in
        let sound_dfd =
          match band with
          | None -> g2 <= dm * dm * Distance.dfd_sq x y
          | Some 0 -> true
          | Some b -> (
            match Distance.dfd_sq_banded ~band:b x y with
            | None -> true
            | Some dist -> g2 <= dm * dm * dist)
        in
        sound_dtw && sound_dfd
      in
      check ~band:None (Lower_bound.gap_sum ~segments ~band:None x y)
      && check ~band:(Some band)
           (Lower_bound.gap_sum ~segments ~band:(Some band) x y)
      && check ~band:(Some 0) (Lower_bound.gap_sum ~segments ~band:(Some 0) x y))

(* --- the secure query engine ----------------------------------------------- *)

(* A catalog with near and far neighbours of the query series. *)
let test_catalog ~count ~length ~max_value =
  let store = Store.generate ~seed:11 ~count ~length ~dim:1 ~max_value in
  let base = (Store.records store).(0) in
  let x =
    Series.map (Array.map (fun v -> Stdlib.min max_value (v + 1))) base
  in
  (store, x)

let plaintext_top_k ~dist ~k store x =
  let hits =
    Array.to_list
      (Array.mapi (fun i y -> (i, dist x y)) (Store.records store))
  in
  let hits =
    List.sort
      (fun (i, a) (j, b) ->
        match compare (a : int) b with 0 -> compare i j | c -> c)
      hits
  in
  List.filteri (fun i _ -> i < k) hits

let check_top_k name spec ~dist ~seed (store, x) =
  let k = 3 in
  let report, _stats =
    Ppst.Query.run_top_k ~spec ~seed ~k ~x ~store ()
  in
  let expected = plaintext_top_k ~dist ~k store x in
  Alcotest.(check (list (pair int int)))
    (name ^ ": pruned top-k equals exhaustive top-k")
    expected
    (Array.to_list report.Ppst.Query.hits
    |> List.map (fun (h : Ppst.Query.hit) ->
           (h.Ppst.Query.index, Bigint.to_int_exn h.Ppst.Query.distance)));
  Alcotest.(check int)
    (name ^ ": accounting covers the catalog")
    report.Ppst.Query.total
    (report.Ppst.Query.evaluated + report.Ppst.Query.pruned)

let test_top_k_dtw () =
  check_top_k "dtw" (Ppst.Protocol.spec `Dtw) ~dist:Distance.dtw_sq
    ~seed:"cat-dtw"
    (test_catalog ~count:10 ~length:12 ~max_value:40)

let test_top_k_dtw_banded () =
  check_top_k "dtw banded"
    (Ppst.Protocol.spec ~band:2 `Dtw)
    ~dist:(fun x y -> Option.get (Distance.dtw_sq_banded ~band:2 x y))
    ~seed:"cat-band"
    (test_catalog ~count:10 ~length:12 ~max_value:40)

let test_top_k_dfd () =
  check_top_k "dfd" (Ppst.Protocol.spec `Dfd) ~dist:Distance.dfd_sq
    ~seed:"cat-dfd"
    (test_catalog ~count:10 ~length:12 ~max_value:40)

let test_top_k_euclidean () =
  check_top_k "euclidean" (Ppst.Protocol.spec `Euclidean)
    ~dist:Distance.euclidean_sq ~seed:"cat-euc"
    (test_catalog ~count:10 ~length:12 ~max_value:40)

(* Mixed-length catalogs: length mismatches are unprunable and must be
   evaluated exactly, never dismissed. *)
let test_top_k_mixed_lengths () =
  let store, x = test_catalog ~count:6 ~length:12 ~max_value:40 in
  Store.insert store ~id:"short"
    (Series.of_list [ 3; 1; 4; 1; 5 ]);
  check_top_k "mixed" (Ppst.Protocol.spec `Dtw) ~dist:Distance.dtw_sq
    ~seed:"cat-mixed" (store, x)

(* ERP has no gap-sum bound: every candidate goes straight to the exact
   stage. *)
let test_erp_never_prunes () =
  let store, x = test_catalog ~count:5 ~length:10 ~max_value:30 in
  let report, _ =
    Ppst.Query.run_top_k
      ~spec:(Ppst.Protocol.spec ~gap:[| 0 |] `Erp)
      ~seed:"cat-erp" ~k:2 ~x ~store ()
  in
  Alcotest.(check int) "erp prunes nothing" 0 report.Ppst.Query.pruned;
  Alcotest.(check int)
    "erp evaluates everything" (Store.length store)
    report.Ppst.Query.evaluated;
  let expected = plaintext_top_k ~dist:(Distance.erp_sq ~gap:[| 0 |]) ~k:2 store x in
  Alcotest.(check (list (pair int int)))
    "erp ranking" expected
    (Array.to_list report.Ppst.Query.hits
    |> List.map (fun (h : Ppst.Query.hit) ->
           (h.Ppst.Query.index, Bigint.to_int_exn h.Ppst.Query.distance)))

(* [within]: survivors and results must match the plaintext predictions
   exactly — both the radius filter and the discard rule. *)
let test_within_matches_prediction () =
  let store, x = test_catalog ~count:12 ~length:10 ~max_value:30 in
  let m = Series.length x and d = Series.dimension x in
  let records = Store.records store in
  let dists = Array.map (fun y -> Distance.dtw_sq x y) records in
  let sorted = Array.copy dists in
  Array.sort compare sorted;
  (* a radius that keeps some and drops some *)
  let radius = sorted.(Array.length sorted / 3) in
  let segments = Stdlib.min 8 m in
  let report, _ =
    Ppst.Query.run_within ~spec:(Ppst.Protocol.spec `Dtw) ~segments
      ~seed:"cat-within"
      ~radius:(Bigint.of_int radius)
      ~x ~store ()
  in
  let expected_hits =
    List.filter (fun (_, dist) -> dist <= radius)
      (Array.to_list (Array.mapi (fun i dist -> (i, dist)) dists))
    |> List.sort (fun (i, a) (j, b) ->
           match compare (a : int) b with 0 -> compare i j | c -> c)
  in
  Alcotest.(check (list (pair int int)))
    "within hits" expected_hits
    (Array.to_list report.Ppst.Query.hits
    |> List.map (fun (h : Ppst.Query.hit) ->
           (h.Ppst.Query.index, Bigint.to_int_exn h.Ppst.Query.distance)));
  (* discard rule: G >= tau_G + 1 with tau_G = isqrt(d*m*radius) *)
  let tau_g =
    Bigint.to_int_exn
      (Bigint.isqrt (Bigint.of_int (d * m * radius)))
  in
  let predicted_pruned =
    Array.fold_left
      (fun acc y ->
        if Lower_bound.gap_sum ~segments ~band:None x y >= tau_g + 1 then
          acc + 1
        else acc)
      0 records
  in
  Alcotest.(check int)
    "pruned set matches the plaintext rule" predicted_pruned
    report.Ppst.Query.pruned

let test_catalog_requires_capability () =
  let store, x = test_catalog ~count:3 ~length:8 ~max_value:20 in
  let rng s = Secure_rng.of_seed_string s in
  let server =
    Ppst.Server.of_store ~rng:(rng "cap-server") ~store ~max_value:20 ()
  in
  let channel = Channel.local (Ppst.Server.handle server) in
  (* query capability not offered: the catalog entry points must refuse *)
  let client =
    Ppst.Client.connect ~rng:(rng "cap-client") ~series:x ~max_value:20
      ~distance:`Dtw channel
  in
  Alcotest.(check bool)
    "capability not granted" false
    (Ppst.Client.catalog_capable client);
  (try
     ignore (Ppst.Client.catalog_list client);
     Alcotest.fail "catalog_list without the capability"
   with Channel.Protocol_error _ -> ());
  Ppst.Client.finish client

(* The transcript of one seeded top-1 query: the MD5 of every request
   and reply frame as [Channel.tcp] would encode it.  The stage-1
   pruning round, a secure maximum over every candidate's segments, is
   not provisioned offline, so its noise comes from pool misses, which
   no pairwise golden transcript draws.  A changed digest is a changed
   protocol, not a value to regenerate. *)
let test_query_transcript_pinned () =
  let store, x = test_catalog ~count:6 ~length:8 ~max_value:30 in
  let rng s = Secure_rng.of_seed_string s in
  let server =
    Ppst.Server.of_store ~rng:(rng "pinned-query/server") ~store ~max_value:30 ()
  in
  let buf = Buffer.create (1 lsl 16) in
  let handler req =
    Buffer.add_string buf (Message.encode (Message.Request req));
    let reply = Ppst.Server.handle server req in
    Buffer.add_string buf (Message.encode (Message.Reply reply));
    reply
  in
  let client =
    Ppst.Client.connect ~query:true ~rng:(rng "pinned-query/client") ~series:x
      ~max_value:30 ~distance:`Dtw (Channel.local handler)
  in
  let report = Ppst.Query.top_k ~spec:(Ppst.Protocol.spec `Dtw) ~k:1 client in
  Ppst.Client.finish client;
  let misses = Ppst.Cost.pool_misses (Ppst.Client.cost client) in
  Alcotest.(check int) "stage-1 noise drawn as pool misses" 488 misses;
  Alcotest.(check int) "pruned" 1 report.Ppst.Query.pruned;
  Alcotest.(check string) "transcript MD5" "be830cd72c4b8da96a306eee2ff96e09"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check (list (pair int int)))
    "top-1 equals the plaintext scan"
    (plaintext_top_k ~dist:Distance.dtw_sq ~k:1 store x)
    (Array.to_list report.Ppst.Query.hits
    |> List.map (fun (h : Ppst.Query.hit) ->
           (h.Ppst.Query.index, Bigint.to_int_exn h.Ppst.Query.distance)))

(* --- admission ------------------------------------------------------------- *)

let test_admission_declare_query () =
  let adm =
    Admission.create
      { Admission.unlimited with max_cells = Some 100 }
  in
  (match Admission.declare_query adm ~candidates:9 ~segments:5 with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "9x5 within budget");
  (* the allowance, not the configured cap, now binds charges *)
  (match
     Admission.charge_cells adm ~kind:`Max ~count:45 ~server_len:1000
   with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "45 instances within allowance");
  (match
     Admission.charge_cells adm ~kind:`Max ~count:10 ~server_len:1000
   with
  | Admission.Reject { quota; _ } ->
    Alcotest.(check string) "allowance quota name" "cells" quota
  | Admission.Admit -> Alcotest.fail "55 > 54 allowance admitted");
  (* over the configured cap at declaration time *)
  (match Admission.declare_query adm ~candidates:20 ~segments:5 with
  | Admission.Reject { limit; requested; _ } ->
    Alcotest.(check int) "cap" 100 limit;
    Alcotest.(check int) "requested cells" 120 requested
  | Admission.Admit -> Alcotest.fail "120 > 100 admitted");
  (* a fresh admitted query resets the ledger *)
  (match Admission.declare_query adm ~candidates:9 ~segments:5 with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "re-declare");
  (* reselect closes the allowance: back to the configured cap *)
  Admission.reselect adm;
  match Admission.charge_cells adm ~kind:`Max ~count:90 ~server_len:1000 with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "90 < 100 after reselect"

let test_admission_rejects_degenerate_query () =
  let adm = Admission.create Admission.unlimited in
  match Admission.declare_query adm ~candidates:0 ~segments:4 with
  | Admission.Reject _ -> ()
  | Admission.Admit -> Alcotest.fail "zero-candidate query admitted"

(* --- wire codecs ----------------------------------------------------------- *)

let round_trip msg =
  let encoded = Message.encode msg in
  let decoded = Message.decode encoded in
  Alcotest.(check string) "codec bytes" encoded (Message.encode decoded);
  decoded

let test_catalog_codecs () =
  (match round_trip (Message.Request Message.Catalog_list_request) with
  | Message.Request Message.Catalog_list_request -> ()
  | _ -> Alcotest.fail "catalog-list request");
  (match
     round_trip
       (Message.Request
          (Message.Query_submit
             { segments = 7; band = Some 3; indices = [| 0; 4; 17 |] }))
   with
  | Message.Request (Message.Query_submit { segments = 7; band = Some 3; indices }) ->
    Alcotest.(check (array int)) "indices" [| 0; 4; 17 |] indices
  | _ -> Alcotest.fail "query-submit");
  (match
     round_trip
       (Message.Request
          (Message.Query_submit { segments = 1; band = None; indices = [||] }))
   with
  | Message.Request (Message.Query_submit { band = None; _ }) -> ()
  | _ -> Alcotest.fail "query-submit unbanded");
  (match
     round_trip
       (Message.Request
          (Message.Verdict_request [| Bigint.of_int 42; Bigint.of_int 7 |]))
   with
  | Message.Request (Message.Verdict_request b) ->
    Alcotest.(check int) "verdict count" 2 (Array.length b)
  | _ -> Alcotest.fail "verdict request");
  (match
     round_trip
       (Message.Reply
          (Message.Catalog_list_reply
             { ids = [| "ecg-17"; "x" |]; lengths = [| 128; 5 |] }))
   with
  | Message.Reply (Message.Catalog_list_reply { ids; lengths }) ->
    Alcotest.(check (array string)) "ids" [| "ecg-17"; "x" |] ids;
    Alcotest.(check (array int)) "lengths" [| 128; 5 |] lengths
  | _ -> Alcotest.fail "catalog-list reply");
  (match
     round_trip
       (Message.Reply
          (Message.Query_sketch
             [|
               {
                 Message.lo = [| Bigint.of_int 1; Bigint.of_int 2 |];
                 hi = [| Bigint.of_int 3; Bigint.of_int 4 |];
               };
             |]))
   with
  | Message.Reply (Message.Query_sketch [| { Message.lo; hi } |]) ->
    Alcotest.(check int) "lo" 2 (Array.length lo);
    Alcotest.(check int) "hi" 2 (Array.length hi)
  | _ -> Alcotest.fail "query sketch");
  match
    round_trip (Message.Reply (Message.Verdict_reply [| true; false; true |]))
  with
  | Message.Reply (Message.Verdict_reply [| true; false; true |]) -> ()
  | _ -> Alcotest.fail "verdict reply"

let test_codec_rejects_forged_counts () =
  (* a forged element count must be rejected before any allocation *)
  let forged =
    let b = Buffer.create 16 in
    Buffer.add_char b '\x11';
    (* segments, band *)
    Buffer.add_string b "\x00\x00\x00\x04\x00\x00\x00\x00";
    (* count = huge, but no payload *)
    Buffer.add_string b "\xff\xff\xff\xff";
    Buffer.contents b
  in
  match Message.decode forged with
  | exception _ -> ()
  | Message.Request (Message.Query_submit _) ->
    Alcotest.fail "forged count decoded"
  | _ -> ()

(* --- the cost model -------------------------------------------------------- *)

(* An all-pruned query isolates the pruning stage on the wire: its live
   value accounting must equal the closed form exactly. *)
let test_expected_query_values () =
  let store = Store.create () in
  for i = 0 to 9 do
    Store.insert store
      ~id:(string_of_int i)
      (Series.create (Array.make 16 [| 9 |]))
  done;
  let x = Series.create (Array.make 16 [| 0 |]) in
  let drift_before = Ppst.Ledger.drift_events () in
  let report, stats =
    Ppst.Query.run_within ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"cost-query"
      ~radius:Bigint.zero ~x ~store ()
  in
  Alcotest.(check int) "all candidates pruned" 10 report.Ppst.Query.pruned;
  Alcotest.(check int) "no exact runs" 0 report.Ppst.Query.evaluated;
  let expected =
    Ppst.Protocol.expected_query_values ~params:Ppst.Params.default
      ~candidates:10 ~segments:8 ~d:1
  in
  (* pin the closed form itself: C*S*d*(k+5) + C with k = 10 *)
  Alcotest.(check int) "closed form" 1210 expected;
  Alcotest.(check int) "live accounting matches" expected
    (Stats.values_sent stats + Stats.values_received stats);
  (* the cost-attribution ledger checked the same run online: the most
     recent entry is this query, with zero drift *)
  (match Ppst.Ledger.recent () with
   | e :: _ ->
     Alcotest.(check bool) "query workload" true
       (e.Ppst.Ledger.workload = Ppst.Ledger.Query);
     Alcotest.(check int) "ledger predicted" expected
       e.Ppst.Ledger.predicted_values;
     Alcotest.(check int) "ledger actual" expected e.Ppst.Ledger.actual_values;
     Alcotest.(check int) "ledger drift" 0 (Ppst.Ledger.drift e)
   | [] -> Alcotest.fail "no ledger entry recorded for the query");
  Alcotest.(check int) "no drift events" drift_before
    (Ppst.Ledger.drift_events ());
  (* the querying process's metrics page carries the query and ledger
     families and is a complete OpenMetrics document *)
  let lines = String.split_on_char '\n' (Ppst_telemetry.Exposition.render ()) in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) ("page carries " ^ prefix) true
        (List.exists (String.starts_with ~prefix) lines))
    [ "ppst_query_submitted"; "ppst_ledger_checks"; "# EOF" ]

(* The pairwise ledger hook fires on every unpacked run; a seeded
   paper-example session must balance exactly. *)
let test_ledger_pairwise_zero_drift () =
  let x = Series.of_list [ 3; 4; 5; 4; 6; 7 ]
  and y = Series.of_list [ 2; 4; 6; 5; 7 ] in
  let drift_before = Ppst.Ledger.drift_events () in
  let r =
    Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"ledger-pairwise"
      ~x ~y ()
  in
  let expected =
    Ppst.Protocol.expected_values_transferred ~params:Ppst.Params.default
      ~m:6 ~n:5 ~d:1 (Ppst.Protocol.spec `Dtw)
  in
  Alcotest.(check int) "closed form pinned" 272 expected;
  Alcotest.(check int) "wire accounting" expected
    (Stats.total_values r.Ppst.Protocol.stats);
  (match Ppst.Ledger.recent () with
   | e :: _ ->
     Alcotest.(check bool) "pairwise workload" true
       (e.Ppst.Ledger.workload = Ppst.Ledger.Pairwise);
     Alcotest.(check int) "ledger predicted" expected
       e.Ppst.Ledger.predicted_values;
     Alcotest.(check int) "ledger actual" expected e.Ppst.Ledger.actual_values
   | [] -> Alcotest.fail "no ledger entry recorded for the run");
  Alcotest.(check int) "no drift events" drift_before
    (Ppst.Ledger.drift_events ())

(* the pairwise formula must not have drifted (admission and cost model
   agree on the same layout) *)
let test_expected_pairwise_values_pinned () =
  Alcotest.(check int) "dtw 6x5 closed form" 272
    (Ppst.Protocol.expected_values_transferred ~params:Ppst.Params.default
       ~m:6 ~n:5 ~d:1 (Ppst.Protocol.spec `Dtw))

let () =
  Alcotest.run "catalog"
    [
      ( "store",
        [
          Alcotest.test_case "basics" `Quick test_store_basics;
          Alcotest.test_case "dir round trip" `Quick test_store_dir_round_trip;
        ] );
      ( "lower bound",
        [ test_segment_bounds_brute; test_gap_sum_soundness ] );
      ( "query",
        [
          Alcotest.test_case "top-k dtw" `Quick test_top_k_dtw;
          Alcotest.test_case "top-k dtw banded" `Quick test_top_k_dtw_banded;
          Alcotest.test_case "top-k dfd" `Quick test_top_k_dfd;
          Alcotest.test_case "top-k euclidean" `Quick test_top_k_euclidean;
          Alcotest.test_case "top-k mixed lengths" `Quick
            test_top_k_mixed_lengths;
          Alcotest.test_case "erp never prunes" `Quick test_erp_never_prunes;
          Alcotest.test_case "within matches prediction" `Quick
            test_within_matches_prediction;
          Alcotest.test_case "capability required" `Quick
            test_catalog_requires_capability;
          Alcotest.test_case "top-1 transcript pinned" `Quick
            test_query_transcript_pinned;
        ] );
      ( "admission",
        [
          Alcotest.test_case "declare query" `Quick
            test_admission_declare_query;
          Alcotest.test_case "degenerate query" `Quick
            test_admission_rejects_degenerate_query;
        ] );
      ( "wire",
        [
          Alcotest.test_case "codec round trips" `Quick test_catalog_codecs;
          Alcotest.test_case "forged counts" `Quick
            test_codec_rejects_forged_counts;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "query values" `Quick test_expected_query_values;
          Alcotest.test_case "pairwise values pinned" `Quick
            test_expected_pairwise_values_pinned;
          Alcotest.test_case "pairwise ledger zero drift" `Quick
            test_ledger_pairwise_zero_drift;
        ] );
    ]
