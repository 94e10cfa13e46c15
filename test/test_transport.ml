(* Tests for the wire format, protocol messages, communication accounting
   and both channel implementations (in-process and TCP). *)

open Ppst_bigint
open Ppst_transport

let eq_bi = Alcotest.testable Bigint.pp Bigint.equal

let qtest name ?(count = 200) gen ~print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let gen_bigint =
  let open QCheck2.Gen in
  let* s = string_size ~gen:(char_range '0' '9') (int_range 1 40) in
  let* neg = bool in
  let v = Bigint.of_string s in
  return (if neg then Bigint.neg v else v)

(* --- wire primitives ----------------------------------------------------- *)

let test_u8_u32_roundtrip () =
  let w = Wire.writer () in
  Wire.put_u8 w 0;
  Wire.put_u8 w 255;
  Wire.put_u32 w 0;
  Wire.put_u32 w 0xFFFFFFFF;
  Wire.put_u32 w 123456789;
  let r = Wire.reader (Wire.contents w) in
  Alcotest.(check int) "u8 0" 0 (Wire.get_u8 r);
  Alcotest.(check int) "u8 255" 255 (Wire.get_u8 r);
  Alcotest.(check int) "u32 0" 0 (Wire.get_u32 r);
  Alcotest.(check int) "u32 max" 0xFFFFFFFF (Wire.get_u32 r);
  Alcotest.(check int) "u32 mid" 123456789 (Wire.get_u32 r);
  Wire.expect_end r

let test_u8_range_checked () =
  let w = Wire.writer () in
  Alcotest.check_raises "negative" (Invalid_argument "Wire.put_u8: out of range")
    (fun () -> Wire.put_u8 w (-1));
  Alcotest.check_raises "256" (Invalid_argument "Wire.put_u8: out of range")
    (fun () -> Wire.put_u8 w 256)

let test_truncated_read () =
  let r = Wire.reader "\001" in
  ignore (Wire.get_u8 r);
  (match Wire.get_u32 r with
   | _ -> Alcotest.fail "read past end"
   | exception Wire.Malformed _ -> ())

let test_trailing_bytes () =
  let r = Wire.reader "ab" in
  ignore (Wire.get_u8 r);
  (match Wire.expect_end r with
   | _ -> Alcotest.fail "trailing bytes accepted"
   | exception Wire.Malformed _ -> ())

let test_bigint_wire_fixed () =
  let check v =
    let w = Wire.writer () in
    Wire.put_bigint w v;
    let r = Wire.reader (Wire.contents w) in
    let v' = Wire.get_bigint r in
    Wire.expect_end r;
    Alcotest.check eq_bi (Bigint.to_string v) v v'
  in
  List.iter check
    [ Bigint.zero; Bigint.one; Bigint.minus_one;
      Bigint.of_string "123456789012345678901234567890";
      Bigint.neg (Bigint.of_string "999999999999999999999999") ]

let prop_bigint_wire =
  qtest "bigint wire round-trip" gen_bigint ~print:Bigint.to_string (fun v ->
      let w = Wire.writer () in
      Wire.put_bigint w v;
      Bigint.equal v (Wire.get_bigint (Wire.reader (Wire.contents w))))

let test_bigint_sign_consistency_checked () =
  (* sign byte 1 with zero magnitude must be rejected *)
  let w = Wire.writer () in
  Wire.put_u8 w 1;
  Wire.put_bytes w "";
  (match Wire.get_bigint (Wire.reader (Wire.contents w)) with
   | _ -> Alcotest.fail "inconsistent sign accepted"
   | exception Wire.Malformed _ -> ());
  (* bad sign byte *)
  let w2 = Wire.writer () in
  Wire.put_u8 w2 7;
  Wire.put_bytes w2 "\001";
  (match Wire.get_bigint (Wire.reader (Wire.contents w2)) with
   | _ -> Alcotest.fail "bad sign byte accepted"
   | exception Wire.Malformed _ -> ())

let test_array_count_guard () =
  (* a forged huge array count must be rejected before allocation *)
  let w = Wire.writer () in
  Wire.put_u32 w 0x7FFFFFFF;
  (match Wire.get_bigint_array (Wire.reader (Wire.contents w)) with
   | _ -> Alcotest.fail "forged count accepted"
   | exception Wire.Malformed _ -> ())

(* --- messages ------------------------------------------------------------ *)

let sample_messages =
  let b = Bigint.of_string in
  [
    Message.Request (Message.Hello { flags = 0; spec = None });
    Message.Request (Message.Hello { flags = Message.flag_crc32 lor Message.flag_resume; spec = None });
    Message.Request Message.Phase1_request;
    Message.Request (Message.Min_request [| b "1"; b "22"; b "333" |]);
    Message.Request (Message.Max_request [| b "987654321987654321" |]);
    Message.Request (Message.Reveal_request (b "31337"));
    Message.Request Message.Catalog_request;
    Message.Request (Message.Select_request 7);
    Message.Request Message.Bye;
    Message.Reply
      (Message.Welcome
         { n = b "13497220662202513373"; key_bits = 64; series_length = 100;
           dimension = 3; max_value = 100; flags = 0; resume_token = "" });
    Message.Reply
      (Message.Welcome
         { n = b "13497220662202513373"; key_bits = 64; series_length = 100;
           dimension = 3; max_value = 100;
           flags = Message.flag_crc32 lor Message.flag_resume;
           resume_token = String.init 16 (fun i -> Char.chr (i * 7 land 0xff)) });
    Message.Request (Message.Resume { token = "0123456789abcdef"; client_rounds = 42; flags = 1 });
    Message.Reply (Message.Resume_ack { server_rounds = 43; reply = "\x81cached"; flags = 3 });
    Message.Reply (Message.Resume_reject { reason = "unknown token" });
    Message.Reply
      (Message.Phase1_reply
         [|
           { Message.sum_sq = b "11"; coords = [| b "1"; b "2" |] };
           { Message.sum_sq = b "55"; coords = [| b "3"; b "4" |] };
         |]);
    Message.Reply (Message.Cipher_reply (b "424242424242"));
    Message.Reply (Message.Reveal_reply (b "3"));
    Message.Reply (Message.Catalog_reply [| 10; 20; 30 |]);
    Message.Reply (Message.Select_ack 2);
    Message.Reply (Message.Bye_ack { server_seconds = 1.25 });
    Message.Reply (Message.Busy { retry_after_s = 2.5 });
    Message.Reply (Message.Error_reply "something went wrong");
  ]

let test_message_roundtrips () =
  List.iter
    (fun msg ->
      let decoded = Message.decode (Message.encode msg) in
      Alcotest.(check string) (Message.describe msg) (Message.describe msg)
        (Message.describe decoded);
      (* structural equality through re-encoding *)
      Alcotest.(check string) "bytes" (Message.encode msg) (Message.encode decoded))
    sample_messages

let test_message_values_in () =
  let b = Bigint.of_string in
  Alcotest.(check int) "hello" 0 (Message.values_in (Message.Request (Message.Hello { flags = 0; spec = None })));
  Alcotest.(check int) "min(3)" 3
    (Message.values_in (Message.Request (Message.Min_request [| b "1"; b "2"; b "3" |])));
  Alcotest.(check int) "phase1 2x(1+2)" 6
    (Message.values_in
       (Message.Reply
          (Message.Phase1_reply
             [|
               { Message.sum_sq = b "1"; coords = [| b "1"; b "2" |] };
               { Message.sum_sq = b "2"; coords = [| b "3"; b "4" |] };
             |])));
  Alcotest.(check int) "cipher reply" 1
    (Message.values_in (Message.Reply (Message.Cipher_reply (b "9"))))

let test_message_unknown_tag () =
  (match Message.decode "\x7f" with
   | _ -> Alcotest.fail "unknown tag accepted"
   | exception Wire.Malformed _ -> ())

(* Trace tables label rounds by request tag: every tag has its own name,
   and only a byte that is no request tag prints as hex. *)
let test_request_tag_names () =
  let tags =
    Message.
      [
        tag_hello; tag_phase1_request; tag_min_request; tag_max_request;
        tag_reveal_request; tag_bye; tag_catalog_request; tag_select_request;
        tag_batch_min_request; tag_batch_max_request; tag_stats_request;
        tag_resume; tag_health_request; tag_packed_min_request;
        tag_packed_max_request; tag_catalog_list_request; tag_query_submit;
        tag_verdict_request; tag_metrics_request;
      ]
  in
  let names = List.map Message.request_name tags in
  Alcotest.(check int) "distinct names" (List.length tags)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not hex") false
        (String.starts_with ~prefix:"0x" name))
    names;
  Alcotest.(check string) "a reply tag is no request" "0x81"
    (Message.request_name Message.tag_welcome)

let test_message_trailing_garbage () =
  let encoded = Message.encode (Message.Request Message.Phase1_request) ^ "extra" in
  (match Message.decode encoded with
   | _ -> Alcotest.fail "trailing bytes accepted"
   | exception Wire.Malformed _ -> ())

let test_message_truncated () =
  let encoded =
    Message.encode (Message.Request (Message.Reveal_request (Bigint.of_int 5)))
  in
  let truncated = String.sub encoded 0 (String.length encoded - 1) in
  (match Message.decode truncated with
   | _ -> Alcotest.fail "truncated frame accepted"
   | exception Wire.Malformed _ -> ())

let prop_decode_fuzz =
  (* arbitrary bytes must either decode or raise Wire.Malformed — never
     any other exception (no Invalid_argument / Out_of_memory from forged
     lengths) *)
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"decode never crashes on fuzz" ~count:2000
       ~print:String.escaped
       QCheck2.Gen.(string_size ~gen:char (int_range 0 60))
       (fun s ->
         match Message.decode s with
         | _ -> true
         | exception Wire.Malformed _ -> true)

(* --- stats ---------------------------------------------------------------- *)

let test_stats_accounting () =
  let s = Stats.create () in
  Stats.record_sent s ~bytes:100 ~values:5;
  Stats.record_received s ~bytes:40 ~values:1;
  Stats.record_round s;
  Alcotest.(check int) "sent" 100 (Stats.bytes_sent s);
  Alcotest.(check int) "received" 40 (Stats.bytes_received s);
  Alcotest.(check int) "total" 140 (Stats.total_bytes s);
  Alcotest.(check int) "values" 6 (Stats.total_values s);
  Alcotest.(check int) "rounds" 1 (Stats.rounds s);
  Alcotest.(check int) "messages" 2 (Stats.messages s);
  Stats.reset s;
  Alcotest.(check int) "reset" 0 (Stats.total_bytes s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.record_sent a ~bytes:10 ~values:1;
  Stats.record_received b ~bytes:20 ~values:2;
  Stats.record_round a;
  Stats.record_round b;
  let m = Stats.merge a b in
  Alcotest.(check int) "bytes" 30 (Stats.total_bytes m);
  Alcotest.(check int) "rounds" 2 (Stats.rounds m)

(* --- local channel --------------------------------------------------------- *)

let echo_handler (req : Message.request) : Message.reply =
  match req with
  | Message.Reveal_request v -> Message.Reveal_reply v
  | Message.Hello _ ->
    Message.Welcome
      { n = Bigint.of_int 99; key_bits = 7; series_length = 1; dimension = 1;
        max_value = 1; flags = 0; resume_token = "" }
  | Message.Bye -> Message.Bye_ack { server_seconds = 0.0 }
  | _ -> Message.Error_reply "unsupported"

let test_local_channel_roundtrip () =
  let ch = Channel.local echo_handler in
  (match Channel.request ch (Message.Reveal_request (Bigint.of_int 77)) with
   | Message.Reveal_reply v -> Alcotest.check eq_bi "echoed" (Bigint.of_int 77) v
   | _ -> Alcotest.fail "wrong reply");
  Alcotest.(check bool) "bytes counted" true (Stats.total_bytes (Channel.stats ch) > 0);
  Alcotest.(check int) "one round" 1 (Stats.rounds (Channel.stats ch));
  Alcotest.(check bool) "server time measured" true (Channel.server_seconds ch >= 0.0)

let test_local_channel_error_reply () =
  let ch = Channel.local echo_handler in
  (match Channel.request ch Message.Phase1_request with
   | _ -> Alcotest.fail "error reply not raised"
   | exception Channel.Protocol_error _ -> ())

let test_local_channel_handler_exception () =
  let ch = Channel.local (fun _ -> failwith "handler blew up") in
  (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
   | _ -> Alcotest.fail "exception not converted"
   | exception Channel.Protocol_error m ->
     Alcotest.(check bool) "mentions failure" true (String.length m > 0))

let test_local_channel_close () =
  let ch = Channel.local echo_handler in
  Channel.close ch;
  (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
   | _ -> Alcotest.fail "closed channel accepted request"
   | exception Channel.Protocol_error _ -> ())

let test_local_channel_byte_parity () =
  (* the local channel must account exactly the encoded frame sizes *)
  let ch = Channel.local echo_handler in
  let req = Message.Reveal_request (Bigint.of_string "123456789123456789") in
  ignore (Channel.request ch req);
  let expected_sent = String.length (Message.encode (Message.Request req)) in
  Alcotest.(check int) "sent bytes = encoding size" expected_sent
    (Stats.bytes_sent (Channel.stats ch))

let test_local_channel_per_channel_cap () =
  (* a tiny cap on one channel rejects oversized messages there and
     leaves other channels at the default *)
  let tiny = Channel.local ~max_frame:16 echo_handler in
  let big = Message.Min_request (Array.make 8 (Bigint.of_string "123456789123456789")) in
  (match Channel.request tiny big with
   | _ -> Alcotest.fail "oversized frame accepted on capped channel"
   | exception Channel.Protocol_error _ -> ());
  let normal = Channel.local echo_handler in
  (match Channel.request normal (Message.Reveal_request (Bigint.of_int 1)) with
   | Message.Reveal_reply _ -> ()
   | _ -> Alcotest.fail "default-config channel affected by peer's cap")

let test_busy_reply_raises () =
  let ch = Channel.local (fun _ -> Message.Busy { retry_after_s = 2.5 }) in
  (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
   | _ -> Alcotest.fail "Busy reply did not raise"
   | exception Channel.Busy { retry_after_s } ->
     Alcotest.(check (float 1e-9)) "retry hint carried" 2.5 retry_after_s)

(* --- netsim over channel stats ------------------------------------------------ *)

(* [rounds] request/reply pairs of the given payload sizes. *)
let stats_of ~rounds ~request_bytes ~reply_bytes =
  let stats = Stats.create () in
  for _ = 1 to rounds do
    Stats.record_sent stats ~bytes:request_bytes ~values:1;
    Stats.record_received stats ~bytes:reply_bytes ~values:1;
    Stats.record_round stats
  done;
  stats

let test_netsim_reads_channel_stats () =
  let ch = Channel.local echo_handler in
  for i = 1 to 5 do
    ignore (Channel.request ch (Message.Reveal_request (Bigint.of_int i)))
  done;
  let stats = Channel.stats ch in
  Alcotest.(check int) "one round per request" 5 (Stats.rounds stats);
  Alcotest.(check int) "two messages per round" 10 (Stats.messages stats);
  let link = Netsim.link ~rtt_ms:10.0 ~mbit_per_s:8.0 in
  let e = Netsim.estimate ~link ~compute_seconds:0.0 stats in
  Alcotest.(check (float 1e-9)) "latency = 5 x 10ms" 0.05 e.Netsim.latency_seconds;
  (* every payload byte plus both 4-byte headers of every round *)
  Alcotest.(check (float 1e-9)) "transfer"
    (float_of_int (Stats.total_bytes stats + (5 * 8)) /. 1e6)
    e.Netsim.transfer_seconds

let test_netsim_components () =
  let stats = stats_of ~rounds:2 ~request_bytes:1000 ~reply_bytes:500 in
  let link = Netsim.link ~rtt_ms:10.0 ~mbit_per_s:8.0 (* = 1e6 bytes/s *) in
  let e = Netsim.estimate ~link ~compute_seconds:1.0 stats in
  Alcotest.(check (float 1e-9)) "compute" 1.0 e.Netsim.compute_seconds;
  Alcotest.(check (float 1e-9)) "latency = 2 x 10ms" 0.02 e.Netsim.latency_seconds;
  (* 3000 payload + 4 headers x 4 = 3016 bytes at 1e6 B/s *)
  Alcotest.(check (float 1e-9)) "transfer" 0.003016 e.Netsim.transfer_seconds;
  Alcotest.(check (float 1e-9)) "total" (1.0 +. 0.02 +. 0.003016) e.Netsim.total_seconds

let test_netsim_monotone_in_rtt () =
  let stats = stats_of ~rounds:10 ~request_bytes:100 ~reply_bytes:100 in
  let t rtt =
    (Netsim.estimate
       ~link:(Netsim.link ~rtt_ms:rtt ~mbit_per_s:100.0)
       ~compute_seconds:0.5 stats)
      .Netsim.total_seconds
  in
  Alcotest.(check bool) "monotone" true (t 0.1 < t 1.0 && t 1.0 < t 50.0)

let test_netsim_validation () =
  (match Netsim.link ~rtt_ms:(-1.0) ~mbit_per_s:1.0 with
   | _ -> Alcotest.fail "negative rtt"
   | exception Invalid_argument _ -> ());
  (match Netsim.link ~rtt_ms:1.0 ~mbit_per_s:0.0 with
   | _ -> Alcotest.fail "zero bandwidth"
   | exception Invalid_argument _ -> ())

(* --- frame I/O edge cases ---------------------------------------------------- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      (try Unix.close w with Unix.Unix_error _ -> ()))
    (fun () -> f r w)

let test_retry_on_intr () =
  let calls = ref 0 in
  let v =
    Channel.retry_on_intr (fun () ->
        incr calls;
        if !calls < 3 then raise (Unix.Unix_error (Unix.EINTR, "read", ""))
        else 42)
  in
  Alcotest.(check int) "result after retries" 42 v;
  Alcotest.(check int) "three attempts" 3 !calls

let test_retry_on_eagain () =
  let calls = ref 0 in
  let v =
    Channel.retry_on_intr (fun () ->
        incr calls;
        match !calls with
        | 1 -> raise (Unix.Unix_error (Unix.EAGAIN, "read", ""))
        | 2 -> raise (Unix.Unix_error (Unix.EWOULDBLOCK, "read", ""))
        | n -> n)
  in
  Alcotest.(check int) "result" 3 v

let test_retry_other_errors_propagate () =
  let exn = Unix.Unix_error (Unix.ECONNRESET, "read", "") in
  Alcotest.check_raises "ECONNRESET propagates" exn (fun () ->
      Channel.retry_on_intr (fun () -> raise exn))

let test_max_frame_validation () =
  (match Channel.local ~max_frame:15 echo_handler with
   | _ -> Alcotest.fail "tiny cap accepted"
   | exception Invalid_argument _ -> ());
  (* rejected before any connect is attempted *)
  (match Channel.connect ~max_frame:1 ~host:"127.0.0.1" ~port:1 () with
   | _ -> Alcotest.fail "tiny cap accepted on connect"
   | exception Invalid_argument _ -> ());
  ignore (Channel.local ~max_frame:16 echo_handler);
  Alcotest.(check int) "default cap" (256 * 1024 * 1024) Channel.default_max_frame

let test_frame_at_cap_roundtrips () =
  with_pipe (fun r w ->
      let payload = String.init 64 (fun i -> Char.chr (i land 0xff)) in
      Channel.write_frame ~max_frame:64 w payload;
      match Channel.read_frame ~max_frame:64 r with
      | Some got -> Alcotest.(check string) "payload" payload got
      | None -> Alcotest.fail "unexpected EOF")

let test_frame_over_cap_rejected_on_write () =
  with_pipe (fun _r w ->
      match Channel.write_frame ~max_frame:64 w (String.make 65 'x') with
      | _ -> Alcotest.fail "oversized frame written"
      | exception Channel.Protocol_error _ -> ())

let test_forged_length_header_rejected () =
  with_pipe (fun r w ->
      (* header claims 65 bytes: one past the cap, must be rejected
         before any body is read (nothing follows the header) *)
      ignore (Unix.write_substring w "\000\000\000\065" 0 4);
      match Channel.read_frame ~max_frame:64 r with
      | _ -> Alcotest.fail "oversized length accepted"
      | exception Channel.Protocol_error _ -> ())

let test_truncated_header_rejected () =
  with_pipe (fun r w ->
      ignore (Unix.write_substring w "\000\000" 0 2);
      Unix.close w;
      match Channel.read_frame r with
      | _ -> Alcotest.fail "truncated header accepted"
      | exception Channel.Connection_lost _ -> ())

let test_truncated_body_rejected () =
  with_pipe (fun r w ->
      (* header promises 10 bytes; deliver 3, then EOF *)
      ignore (Unix.write_substring w "\000\000\000\010abc" 0 7);
      Unix.close w;
      match Channel.read_frame r with
      | _ -> Alcotest.fail "truncated body accepted"
      | exception Channel.Connection_lost _ -> ())

let test_clean_eof_is_none () =
  with_pipe (fun r w ->
      Unix.close w;
      Alcotest.(check bool) "None on clean EOF" true (Channel.read_frame r = None))

(* --- tcp channel ------------------------------------------------------------ *)

(* A Server_loop that serves one session and stops. *)
let serve_one handler =
  let loop =
    Server_loop.create
      ~config:{ Server_loop.default_config with max_total = Some 1 }
      ~port:0
      ~handler:(fun ~id:_ ~peer:_ -> Server_loop.respond_only handler)
      ()
  in
  (Server_loop.port loop, Thread.create Server_loop.run loop)

let with_tcp_server handler f =
  let port, server = serve_one handler in
  let ch = Channel.connect ~host:"127.0.0.1" ~port () in
  Fun.protect
    ~finally:(fun () ->
      Channel.close ch;
      Thread.join server)
    (fun () -> f ch)

let test_tcp_roundtrip () =
  with_tcp_server echo_handler (fun ch ->
      match Channel.request ch (Message.Reveal_request (Bigint.of_int 5)) with
      | Message.Reveal_reply v -> Alcotest.check eq_bi "echo over tcp" (Bigint.of_int 5) v
      | _ -> Alcotest.fail "wrong reply")

let test_tcp_stats_match_local () =
  (* the accounting Netsim projects is transport-independent: the same
     requests count the same rounds and bytes over TCP as in process *)
  let local = Channel.local echo_handler in
  with_tcp_server echo_handler (fun tcp ->
      List.iter
        (fun ch ->
          for i = 1 to 3 do
            ignore (Channel.request ch (Message.Reveal_request (Bigint.of_int i)))
          done)
        [ local; tcp ];
      let l = Channel.stats local and t = Channel.stats tcp in
      Alcotest.(check int) "rounds" 3 (Stats.rounds t);
      Alcotest.(check int) "same rounds" (Stats.rounds l) (Stats.rounds t);
      Alcotest.(check int) "same bytes" (Stats.total_bytes l) (Stats.total_bytes t))

let test_tcp_multiple_rounds () =
  with_tcp_server echo_handler (fun ch ->
      for i = 1 to 20 do
        match Channel.request ch (Message.Reveal_request (Bigint.of_int i)) with
        | Message.Reveal_reply v -> Alcotest.check eq_bi "round" (Bigint.of_int i) v
        | _ -> Alcotest.fail "wrong reply"
      done;
      Alcotest.(check int) "20 rounds" 20 (Stats.rounds (Channel.stats ch)))

let test_tcp_handler_exception_kept_alive () =
  with_tcp_server
    (fun req ->
      match req with
      | Message.Hello _ -> failwith "boom"
      | r -> echo_handler r)
    (fun ch ->
      (* first request trips the handler; server must survive and report *)
      (match Channel.request ch (Message.Hello { flags = 0; spec = None }) with
       | _ -> Alcotest.fail "no error"
       | exception Channel.Protocol_error _ -> ());
      match Channel.request ch (Message.Reveal_request (Bigint.of_int 3)) with
      | Message.Reveal_reply v ->
        Alcotest.check eq_bi "server survived" (Bigint.of_int 3) v
      | _ -> Alcotest.fail "wrong reply")

let test_tcp_server_seconds_reported () =
  (* regression: TCP used to report 0.0 forever because only the local
     backend accumulated handler time; the server loop ships its measured
     total in the final Bye_ack *)
  let slow_handler req =
    (match req with Message.Reveal_request _ -> Thread.delay 0.05 | _ -> ());
    echo_handler req
  in
  let port, server = serve_one slow_handler in
  let ch = Channel.connect ~host:"127.0.0.1" ~port () in
  ignore (Channel.request ch (Message.Reveal_request (Bigint.of_int 1)));
  Alcotest.(check (float 0.0)) "0 during the session" 0.0
    (Channel.server_seconds ch);
  Channel.close ch;
  Thread.join server;
  Alcotest.(check bool) "handler time reported at close" true
    (Channel.server_seconds ch >= 0.05)

(* [shutdown] writes to the loop's self-pipe, so an idle loop returns
   at once instead of at its next 0.2 s select tick: five stops of each
   kind, every one within 50 ms. *)
let test_shutdown_wakes_idle_loop () =
  let handler ~id:_ ~peer:_ = Server_loop.respond_only echo_handler in
  let stop_within name loop serve =
    let th = Thread.create serve () in
    Thread.delay 0.05 (* let the loop reach its select *);
    let t0 = Monoclock.now () in
    Server_loop.shutdown loop;
    Thread.join th;
    let waited = Monoclock.now () -. t0 in
    Alcotest.(check bool) (Printf.sprintf "%s returned in %.3f s" name waited) true
      (waited < 0.05)
  in
  for _ = 1 to 5 do
    let loop = Server_loop.create ~port:0 ~handler () in
    stop_within "run" loop (fun () -> Server_loop.run loop)
  done;
  for _ = 1 to 5 do
    let control, parent = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let loop = Server_loop.create_worker ~slot:0 ~workers:1 ~control ~handler () in
    stop_within "worker run" loop (fun () -> Server_loop.run loop);
    Unix.close control;
    Unix.close parent
  done

(* [Metrics_endpoint.stop] stops the sidecar's intake, whose self-pipe
   wakes its take: five stops of idle endpoints, every one within
   50 ms. *)
let test_metrics_endpoint_stops_at_once () =
  for _ = 1 to 5 do
    let endpoint = Metrics_endpoint.start ~port:0 () in
    Thread.delay 0.05 (* let the responder reach its select *);
    let t0 = Monoclock.now () in
    Metrics_endpoint.stop endpoint;
    let waited = Monoclock.now () -. t0 in
    Alcotest.(check bool) (Printf.sprintf "stop returned in %.3f s" waited) true
      (waited < 0.05)
  done

let () =
  Alcotest.run "transport"
    [
      ( "wire",
        [
          Alcotest.test_case "u8/u32 round-trip" `Quick test_u8_u32_roundtrip;
          Alcotest.test_case "u8 range checked" `Quick test_u8_range_checked;
          Alcotest.test_case "truncated read" `Quick test_truncated_read;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes;
          Alcotest.test_case "bigint fixed vectors" `Quick test_bigint_wire_fixed;
          Alcotest.test_case "sign consistency" `Quick test_bigint_sign_consistency_checked;
          Alcotest.test_case "forged array count" `Quick test_array_count_guard;
          prop_bigint_wire;
        ] );
      ( "messages",
        [
          Alcotest.test_case "round-trips" `Quick test_message_roundtrips;
          Alcotest.test_case "values_in counting" `Quick test_message_values_in;
          Alcotest.test_case "unknown tag" `Quick test_message_unknown_tag;
          Alcotest.test_case "trailing garbage" `Quick test_message_trailing_garbage;
          Alcotest.test_case "truncated frame" `Quick test_message_truncated;
          prop_decode_fuzz;
          Alcotest.test_case "request tag names" `Quick test_request_tag_names;
        ] );
      ( "stats",
        [
          Alcotest.test_case "accounting" `Quick test_stats_accounting;
          Alcotest.test_case "merge" `Quick test_stats_merge;
        ] );
      ( "local channel",
        [
          Alcotest.test_case "round-trip" `Quick test_local_channel_roundtrip;
          Alcotest.test_case "error replies raise" `Quick test_local_channel_error_reply;
          Alcotest.test_case "handler exceptions converted" `Quick
            test_local_channel_handler_exception;
          Alcotest.test_case "close" `Quick test_local_channel_close;
          Alcotest.test_case "byte accounting parity" `Quick test_local_channel_byte_parity;
          Alcotest.test_case "per-channel frame cap" `Quick
            test_local_channel_per_channel_cap;
          Alcotest.test_case "busy reply raises" `Quick test_busy_reply_raises;
        ] );
      ( "trace & netsim",
        [
          Alcotest.test_case "netsim reads channel stats" `Quick
            test_netsim_reads_channel_stats;
          Alcotest.test_case "estimate components" `Quick test_netsim_components;
          Alcotest.test_case "monotone in rtt" `Quick test_netsim_monotone_in_rtt;
          Alcotest.test_case "link validation" `Quick test_netsim_validation;
        ] );
      ( "framing",
        [
          Alcotest.test_case "retry on EINTR" `Quick test_retry_on_intr;
          Alcotest.test_case "retry on EAGAIN/EWOULDBLOCK" `Quick
            test_retry_on_eagain;
          Alcotest.test_case "other errors propagate" `Quick
            test_retry_other_errors_propagate;
          Alcotest.test_case "max_frame validation" `Quick
            test_max_frame_validation;
          Alcotest.test_case "frame at cap round-trips" `Quick
            test_frame_at_cap_roundtrips;
          Alcotest.test_case "over-cap write rejected" `Quick
            test_frame_over_cap_rejected_on_write;
          Alcotest.test_case "forged length header rejected" `Quick
            test_forged_length_header_rejected;
          Alcotest.test_case "truncated header rejected" `Quick
            test_truncated_header_rejected;
          Alcotest.test_case "truncated body rejected" `Quick
            test_truncated_body_rejected;
          Alcotest.test_case "clean EOF is None" `Quick test_clean_eof_is_none;
        ] );
      ( "tcp channel",
        [
          Alcotest.test_case "round-trip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "stats match a local channel" `Quick
            test_tcp_stats_match_local;
          Alcotest.test_case "many rounds" `Quick test_tcp_multiple_rounds;
          Alcotest.test_case "handler failure keeps server alive" `Quick
            test_tcp_handler_exception_kept_alive;
          Alcotest.test_case "server_seconds over TCP" `Quick
            test_tcp_server_seconds_reported;
          Alcotest.test_case "shutdown wakes an idle loop" `Quick
            test_shutdown_wakes_idle_loop;
          Alcotest.test_case "metrics endpoint stops at once" `Quick
            test_metrics_endpoint_stops_at_once;
        ] );
    ]
