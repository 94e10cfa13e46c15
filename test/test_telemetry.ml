(* Tests for the leakage-safe telemetry subsystem (lib/telemetry): the
   metrics registry under Domain contention, histogram bucket edges, the
   JSONL sink round-tripping through Trace_reader, the leakage lint, and
   the live Stats_req introspection path of Server_loop — including the
   at-capacity probe that answers without a session slot. *)

module Telemetry = Ppst_telemetry.Telemetry
module Metrics = Ppst_telemetry.Metrics
module Trace_reader = Ppst_telemetry.Trace_reader
open Ppst_transport

(* --- metrics registry --------------------------------------------------- *)

let test_counter_basics () =
  let c = Metrics.counter "test.counter.basics" in
  Alcotest.(check int) "fresh" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "42" 42 (Metrics.counter_value c);
  (* get-or-create returns the same cell *)
  Metrics.incr (Metrics.counter "test.counter.basics");
  Alcotest.(check int) "shared" 43 (Metrics.counter_value c)

let test_kind_mismatch_rejected () =
  ignore (Metrics.counter "test.kind.clash");
  (try
     ignore (Metrics.gauge "test.kind.clash");
     Alcotest.fail "gauge on a counter name should raise"
   with Invalid_argument _ -> ());
  try
    ignore (Metrics.histogram "test.kind.clash");
    Alcotest.fail "histogram on a counter name should raise"
  with Invalid_argument _ -> ()

let test_counter_merge_across_domains () =
  let c = Metrics.counter "test.counter.domains" in
  let per_domain = 25_000 and domains = 4 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost increments" (domains * per_domain)
    (Metrics.counter_value c)

let test_gauge () =
  let g = Metrics.gauge "test.gauge" in
  Metrics.gauge_set g 2.5;
  Metrics.gauge_add g 0.5;
  Alcotest.(check (float 1e-9)) "set+add" 3.0 (Metrics.gauge_value g)

let test_histogram_bucket_boundaries () =
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.histo.edges" in
  (* "le" semantics: a value equal to a bound lands in that bound's
     bucket, strictly above it spills into the next *)
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.0000001; 2.0; 3.9; 4.0; 4.1; 100.0 ];
  let s = Metrics.histogram_snapshot h in
  Alcotest.(check int) "count" 8 s.Metrics.count;
  Alcotest.(check (float 1e-6)) "sum" 116.5000001 s.Metrics.sum;
  let counts = Array.map snd s.Metrics.buckets in
  Alcotest.(check (array int)) "per-bucket" [| 2; 2; 2 |] counts;
  Alcotest.(check int) "overflow" 2 s.Metrics.overflow;
  Alcotest.(check (float 1e-9)) "bounds kept" 1.0 (fst s.Metrics.buckets.(0))

let test_histogram_rejects_bad_buckets () =
  try
    ignore (Metrics.histogram ~buckets:[| 2.0; 1.0 |] "test.histo.bad");
    Alcotest.fail "non-ascending buckets should raise"
  with Invalid_argument _ -> ()

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec at i = i + n <= m && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_scalars_format () =
  Metrics.incr ~by:3 (Metrics.counter "test.scalars.a");
  Metrics.gauge_set (Metrics.gauge "test.scalars.b") 1.5;
  Metrics.observe (Metrics.histogram "test.scalars.c") 0.5;
  let scalars = Metrics.scalars () in
  let value name = List.assoc_opt name scalars in
  Alcotest.(check (option (float 0.0))) "counter value" (Some 3.0) (value "test.scalars.a");
  Alcotest.(check (option (float 0.0))) "gauge value" (Some 1.5) (value "test.scalars.b");
  Alcotest.(check bool) "histogram excluded" false (List.mem_assoc "test.scalars.c" scalars);
  let names = List.map fst scalars in
  Alcotest.(check (list string)) "sorted by name" (List.sort String.compare names) names

(* --- windowed rollups ---------------------------------------------------- *)

module Rollup = Ppst_telemetry.Rollup

let find_wc w name =
  List.find_opt (fun c -> c.Rollup.wc_name = name) w.Rollup.w_counters

let find_wh w name =
  List.find_opt (fun h -> h.Rollup.wh_name = name) w.Rollup.w_histograms

let test_rollup_fake_clock () =
  let clock = ref 0.0 in
  let r = Rollup.create ~now:(fun () -> !clock) ~slot_s:60.0 () in
  let c = Metrics.counter "test.rollup.clock" in
  (* slot 0: 30 increments, half a slot in *)
  Metrics.incr ~by:30 c;
  clock := 30.0;
  let w = Rollup.window r ~slots:1 in
  (match find_wc w "test.rollup.clock" with
   | Some wc ->
     Alcotest.(check int) "partial-slot delta" 30 wc.Rollup.wc_delta;
     Alcotest.(check (float 0.01)) "rate over actual span" 1.0 wc.Rollup.wc_rate
   | None -> Alcotest.fail "counter missing from window");
  (* cross into slot 1: the first tick after the crossing freezes slot 0's
     totals (sampling semantics — increments before that tick belong to
     the closed slot) *)
  clock := 70.0;
  Rollup.tick r;
  Metrics.incr ~by:5 c;
  let w = Rollup.window r ~slots:1 in
  (match find_wc w "test.rollup.clock" with
   | Some wc ->
     Alcotest.(check int) "new slot sees only new increments" 5
       wc.Rollup.wc_delta
   | None -> Alcotest.fail "counter missing after advance");
  (* a 2-slot window spans the boundary and sees both batches *)
  let w2 = Rollup.window r ~slots:2 in
  (match find_wc w2 "test.rollup.clock" with
   | Some wc -> Alcotest.(check int) "2-slot delta" 35 wc.Rollup.wc_delta
   | None -> Alcotest.fail "counter missing from 2-slot window");
  (* EWMA updated at the slot advance: alpha * (30/60) against a zero seed *)
  (match List.assoc_opt "test.rollup.clock" (Rollup.ewma r) with
   | Some rate -> Alcotest.(check bool) "ewma positive" true (rate > 0.0)
   | None -> Alcotest.fail "no ewma entry");
  (* a long silent gap: missed boundaries are backfilled, window drains *)
  clock := 60.0 *. 40.0;
  let w = Rollup.window r ~slots:15 in
  match find_wc w "test.rollup.clock" with
  | Some wc -> Alcotest.(check int) "idle window empty" 0 wc.Rollup.wc_delta
  | None -> ()

let test_rollup_histogram_across_domains () =
  let clock = ref 0.0 in
  let r = Rollup.create ~now:(fun () -> !clock) ~slot_s:60.0 () in
  let h =
    Metrics.histogram ~buckets:[| 0.001; 0.01; 0.1; 1.0 |]
      "test.rollup.domains"
  in
  (* 4 Domains race 1000 observations each into the same histogram; the
     windowed view must merge them without losing any *)
  let per_domain = 1000 and domains = 4 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              (* deterministic spread: ~half in (0.001, 0.01], rest higher *)
              let v = if (i + d) mod 2 = 0 then 0.005 else 0.05 in
              Metrics.observe h v
            done))
  in
  List.iter Domain.join workers;
  clock := 30.0;
  let w = Rollup.window r ~slots:1 in
  match find_wh w "test.rollup.domains" with
  | Some wh ->
    Alcotest.(check int) "no lost observations" (domains * per_domain)
      wh.Rollup.wh_count;
    Alcotest.(check (float 1e-6)) "sum merged" 110.0 wh.Rollup.wh_sum;
    (* half the mass is at 0.005, half at 0.05: p50 inside (0.001, 0.01],
       p95/p99 inside (0.01, 0.1] (epsilon slack for the interpolation) *)
    Alcotest.(check bool) "p50 bracket" true
      (wh.Rollup.wh_p50 > 0.001 && wh.Rollup.wh_p50 <= 0.01 +. 1e-9);
    Alcotest.(check bool) "p99 bracket" true
      (wh.Rollup.wh_p99 > 0.01 && wh.Rollup.wh_p99 <= 0.1 +. 1e-9)
  | None -> Alcotest.fail "histogram missing from window"

(* --- spans and the JSONL sink ------------------------------------------- *)

let with_trace_file f =
  let path = Filename.temp_file "ppst_test_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.configure ();
      (* detach + flush *)
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_jsonl_round_trip () =
  with_trace_file (fun path ->
      Telemetry.configure ~trace_out:path ();
      Telemetry.span ~name:"outer"
        ~attrs:
          [
            ("count", Telemetry.Int 7);
            ("bytes", Telemetry.Size 4096);
            ("wait", Telemetry.Duration 0.25);
            ("op", Telemetry.Opcode 0x0b);
            ("phase", Telemetry.Phase Telemetry.Phase2);
            ("hit", Telemetry.Flag true);
          ]
        (fun () ->
          Telemetry.event ~level:Telemetry.Debug ~name:"inner.point"
            ~attrs:[ ("n", Telemetry.Int (-3)) ]
            ());
      Telemetry.configure ();
      (* flush before reading back *)
      let entries = Trace_reader.read_file path in
      Alcotest.(check int) "start + point + end" 3 (List.length entries);
      (match entries with
       | [ s; p; e ] ->
         Alcotest.(check bool) "kinds" true
           Trace_reader.(s.kind = Start && p.kind = Point && e.kind = End);
         Alcotest.(check string) "span name" "outer" s.Trace_reader.name;
         Alcotest.(check string) "point name" "inner.point" p.Trace_reader.name;
         Alcotest.(check bool) "ids match" true
           (s.Trace_reader.id = e.Trace_reader.id && s.Trace_reader.id > 0);
         Alcotest.(check bool) "end has duration" true (e.Trace_reader.dt >= 0.0);
         Alcotest.(check bool) "monotonic stamps" true
           (s.Trace_reader.t <= p.Trace_reader.t
            && p.Trace_reader.t <= e.Trace_reader.t);
         (match List.assoc "count" s.Trace_reader.attrs with
          | Trace_reader.Num v -> Alcotest.(check (float 0.0)) "int attr" 7.0 v
          | _ -> Alcotest.fail "count should be a number");
         (match List.assoc "phase" s.Trace_reader.attrs with
          | Trace_reader.Str v -> Alcotest.(check string) "phase attr" "phase2" v
          | _ -> Alcotest.fail "phase should be a string tag");
         (match List.assoc "hit" s.Trace_reader.attrs with
          | Trace_reader.Bool v -> Alcotest.(check bool) "flag attr" true v
          | _ -> Alcotest.fail "flag should be a bool");
         (match List.assoc "n" p.Trace_reader.attrs with
          | Trace_reader.Num v ->
            Alcotest.(check (float 0.0)) "negative int" (-3.0) v
          | _ -> Alcotest.fail "n should be a number")
       | _ -> Alcotest.fail "expected exactly three records");
      (* everything the sink can produce passes the leakage lint *)
      List.iter
        (fun e ->
          match Trace_reader.lint_entry e with
          | None -> ()
          | Some reason -> Alcotest.fail ("lint rejected sink output: " ^ reason))
        entries)

let test_span_reraises_and_marks_error () =
  with_trace_file (fun path ->
      Telemetry.configure ~trace_out:path ();
      (try
         Telemetry.span ~name:"boom" (fun () -> failwith "kaboom")
       with Failure _ -> ());
      Telemetry.configure ();
      let entries = Trace_reader.read_file path in
      match List.rev entries with
      | last :: _ ->
        Alcotest.(check bool) "end record" true (last.Trace_reader.kind = Trace_reader.End);
        (match List.assoc_opt "error" last.Trace_reader.attrs with
         | Some (Trace_reader.Bool true) -> ()
         | _ -> Alcotest.fail "error flag missing on exceptional span end")
      | [] -> Alcotest.fail "no records written")

let test_lint_catches_leaks () =
  let entry_of s = Trace_reader.entry_of_line s in
  (* a free-form string value: exactly what the value variant forbids *)
  let leaky =
    entry_of
      {|{"ev":"point","name":"bad","t":1.0,"attrs":{"plaintext":"secret-bytes"}}|}
  in
  (match Trace_reader.lint_entry leaky with
   | Some _ -> ()
   | None -> Alcotest.fail "free-form string value must fail the lint");
  (* a number far beyond any count/size/duration: a smuggled plaintext *)
  let big =
    entry_of {|{"ev":"point","name":"bad","t":1.0,"attrs":{"v":1e30}}|}
  in
  (match Trace_reader.lint_entry big with
   | Some _ -> ()
   | None -> Alcotest.fail "huge number must fail the lint");
  (* phase tags are the one allowed string vocabulary *)
  let ok =
    entry_of {|{"ev":"point","name":"ok","t":1.0,"attrs":{"phase":"phase3"}}|}
  in
  match Trace_reader.lint_entry ok with
  | None -> ()
  | Some reason -> Alcotest.fail ("phase tag wrongly rejected: " ^ reason)

let test_no_sinks_is_cheap_and_silent () =
  Telemetry.configure ();
  Alcotest.(check bool) "disabled" false (Telemetry.enabled Telemetry.Info);
  (* spans still run their body and return its value *)
  Alcotest.(check int) "value" 9
    (Telemetry.span ~name:"silent" (fun () -> 9))

(* --- live introspection: Stats_req against Server_loop ------------------- *)

let series_y = Ppst_timeseries.Series.of_list [ 2; 4; 6; 5; 7 ]
let max_value = 9

let make_loop ?(config = Server_loop.default_config) ~seed () =
  let rng = Ppst_rng.Secure_rng.of_seed_string (seed ^ "/keygen") in
  let _pk, sk = Ppst_paillier.Paillier.keygen ~bits:256 rng in
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
    Server_loop.create ~config ~port:0
      ~handler:(fun ~id ~peer -> Server_loop.respond_only (handler ~id ~peer)) ()
  in
  let runner = Thread.create (fun () -> Server_loop.run loop) () in
  (loop, runner)

let stop (loop, runner) =
  Server_loop.shutdown loop;
  Thread.join runner

let fetch_stats ~port =
  let ch = Channel.connect ~host:"127.0.0.1" ~port () in
  let text =
    match Channel.request ch Message.Stats_req with
    | Message.Stats_reply text -> text
    | other ->
      Alcotest.fail
        ("expected Stats_reply, got "
        ^ Message.describe (Message.Reply other))
  in
  Channel.close ch;
  text

(* A scalar family's value on the OpenMetrics page ("NAME 2" lines) *)
let live_field text key =
  let lines = String.split_on_char '\n' text in
  let prefix = key ^ " " in
  let plen = String.length prefix in
  List.find_map
    (fun l ->
      if String.length l > plen && String.sub l 0 plen = prefix then
        int_of_string_opt (String.sub l plen (String.length l - plen))
      else None)
    lines

let test_stats_req_live_sessions () =
  let t = make_loop ~seed:"stats-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* hold two sessions open mid-protocol, then introspect *)
      let a = Channel.connect ~host:"127.0.0.1" ~port () in
      let b = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request a (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "A's Hello failed");
      (match Channel.request b (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "B's Hello failed");
      let text = fetch_stats ~port in
      (match live_field text "ppst_server_sessions_active" with
       | Some n -> Alcotest.(check bool) "two live sessions visible" true (n >= 2)
       | None -> Alcotest.fail ("no 'ppst_server_sessions_active' line in:\n" ^ text));
      (match live_field text "ppst_server_sessions_accepted" with
       | Some n -> Alcotest.(check bool) "accepted >= 3" true (n >= 3)
       | None -> Alcotest.fail "no 'ppst_server_sessions_accepted' line");
      (* the OpenMetrics page rides along after the resume table *)
      Alcotest.(check bool) "resume table first" true (starts_with "# resume table\n" text);
      Alcotest.(check bool) "metrics page present" true (contains text "\n# EOF\n");
      Channel.close a;
      Channel.close b)

let test_metrics_codec_round_trip () =
  let req = Message.Request Message.Metrics_req in
  (match Message.decode (Message.encode req) with
   | Message.Request Message.Metrics_req -> ()
   | other ->
     Alcotest.fail ("request did not round-trip: " ^ Message.describe other));
  Alcotest.(check int) "request carries no protocol values" 0
    (Message.values_in req);
  let page = "# TYPE ppst_example counter\nppst_example 1\n# EOF\n" in
  let reply = Message.Reply (Message.Metrics_reply page) in
  (match Message.decode (Message.encode reply) with
   | Message.Reply (Message.Metrics_reply text) ->
     Alcotest.(check string) "payload preserved" page text
   | other ->
     Alcotest.fail ("reply did not round-trip: " ^ Message.describe other));
  Alcotest.(check int) "reply carries no protocol values" 0
    (Message.values_in reply)

(* In-session Metrics_req is a negotiated capability: granted only when
   Hello offered the flag (and the server allows it); otherwise the reply
   is a typed capability violation, exactly like the catalog messages. *)
let test_metrics_capability_gating () =
  let t = make_loop ~seed:"metrics-gate" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      (* without the flag: refused *)
      let a = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request a (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "flagless Hello failed");
      (match Channel.request a Message.Metrics_req with
       | exception Channel.Protocol_error reason ->
         Alcotest.(check bool) "typed capability violation" true
           (contains reason "capability violation")
       | other ->
         Alcotest.fail
           ("expected a capability violation, got "
           ^ Message.describe (Message.Reply other)));
      Channel.close a;
      (* with the flag: granted, and the page is a terminated exposition *)
      let b = Channel.connect ~host:"127.0.0.1" ~port () in
      (match
         Channel.request b
           (Message.Hello { flags = Message.flag_metrics; spec = None })
       with
       | Message.Welcome { flags; _ } ->
         Alcotest.(check bool) "flag granted" true
           (flags land Message.flag_metrics <> 0)
       | _ -> Alcotest.fail "flagged Hello failed");
      (match Channel.request b Message.Metrics_req with
       | Message.Metrics_reply text ->
         Alcotest.(check bool) "non-empty page" true (String.length text > 0);
         Alcotest.(check bool) "openmetrics terminator" true
           (let tail = "# EOF\n" in
            let n = String.length text and tn = String.length tail in
            n >= tn && String.sub text (n - tn) tn = tail)
       | other ->
         Alcotest.fail
           ("expected Metrics_reply, got "
           ^ Message.describe (Message.Reply other)));
      Channel.close b;
      (* sessionless probe: answered without negotiation, like Health_req *)
      let c = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request c Message.Metrics_req with
       | Message.Metrics_reply _ -> ()
       | other ->
         Alcotest.fail
           ("probe expected Metrics_reply, got "
           ^ Message.describe (Message.Reply other)));
      Channel.close c)

(* --no-metrics: the flag is never granted and even the sessionless probe
   is refused. *)
let test_metrics_disabled () =
  let config =
    { Server_loop.default_config with Server_loop.enable_metrics = false }
  in
  let t = make_loop ~config ~seed:"metrics-off" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let a = Channel.connect ~host:"127.0.0.1" ~port () in
      (match
         Channel.request a
           (Message.Hello { flags = Message.flag_metrics; spec = None })
       with
       | Message.Welcome { flags; _ } ->
         Alcotest.(check int) "flag not granted" 0
           (flags land Message.flag_metrics)
       | _ -> Alcotest.fail "Hello failed");
      (match Channel.request a Message.Metrics_req with
       | exception Channel.Protocol_error _ -> ()
       | _ -> Alcotest.fail "in-session Metrics_req should be refused");
      Channel.close a;
      let b = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request b Message.Metrics_req with
       | exception Channel.Protocol_error _ -> ()
       | _ -> Alcotest.fail "probe Metrics_req should be refused");
      Channel.close b)

let test_stats_req_at_capacity () =
  let config =
    { Server_loop.default_config with max_sessions = 1; retry_after_s = 0.5 }
  in
  let t = make_loop ~config ~seed:"stats-capacity-test" () in
  let loop = fst t in
  let port = Server_loop.port loop in
  Fun.protect ~finally:(fun () -> stop t)
    (fun () ->
      let a = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request a (Message.Hello { flags = 0; spec = None }) with
       | Message.Welcome _ -> ()
       | _ -> Alcotest.fail "A's Hello failed");
      (* the only slot is taken: a Stats_req probe must still be served,
         without consuming a slot and without counting as a rejection *)
      let rejected () =
        Metrics.(counter_value (counter "server.sessions.busy_rejected")
                 + counter_value (counter "server.shed"))
      in
      let rejected_before = rejected () in
      let text = fetch_stats ~port in
      (match live_field text "ppst_server_sessions_active" with
       | Some n -> Alcotest.(check int) "probe sees the busy slot" 1 n
       | None -> Alcotest.fail ("no 'ppst_server_sessions_active' line in:\n" ^ text));
      Alcotest.(check int) "probe is not a rejection" rejected_before (rejected ());
      (* a real session is still turned away *)
      let b = Channel.connect ~host:"127.0.0.1" ~port () in
      (match Channel.request b (Message.Hello { flags = 0; spec = None }) with
       | _ -> Alcotest.fail "second session admitted beyond capacity"
       | exception Channel.Busy _ -> ());
      Channel.close b;
      Channel.close a)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "kind mismatch rejected" `Quick
            test_kind_mismatch_rejected;
          Alcotest.test_case "counter merge across 4 domains" `Quick
            test_counter_merge_across_domains;
          Alcotest.test_case "gauge set/add" `Quick test_gauge;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "bad buckets rejected" `Quick
            test_histogram_rejects_bad_buckets;
          Alcotest.test_case "scalars format" `Quick test_scalars_format;
        ] );
      ( "rollups",
        [
          Alcotest.test_case "fake-clock slot advance" `Quick
            test_rollup_fake_clock;
          Alcotest.test_case "windowed histogram across 4 domains" `Quick
            test_rollup_histogram_across_domains;
        ] );
      ( "spans",
        [
          Alcotest.test_case "JSONL round trip" `Quick test_jsonl_round_trip;
          Alcotest.test_case "span re-raises, marks error" `Quick
            test_span_reraises_and_marks_error;
          Alcotest.test_case "lint catches leaks" `Quick test_lint_catches_leaks;
          Alcotest.test_case "no sinks = silent" `Quick
            test_no_sinks_is_cheap_and_silent;
        ] );
      ( "introspection",
        [
          Alcotest.test_case "Stats_req sees live sessions" `Quick
            test_stats_req_live_sessions;
          Alcotest.test_case "Stats_req served at capacity" `Quick
            test_stats_req_at_capacity;
          Alcotest.test_case "Metrics_req codec round trip" `Quick
            test_metrics_codec_round_trip;
          Alcotest.test_case "Metrics_req capability gating" `Quick
            test_metrics_capability_gating;
          Alcotest.test_case "Metrics_req disabled end to end" `Quick
            test_metrics_disabled;
        ] );
    ]
