(* Golden transcripts: the MD5 of the full request+reply byte stream and
   the revealed distance of one seeded session per supported spec.  The
   table was recorded before the secure-DP drivers were unified into one
   engine, so any change to a round's order, framing or masking draws
   shows up here as a digest mismatch.  Never regenerate it to make a
   refactor pass: a changed digest is a changed protocol. *)

open Ppst.Import
module Generate = Ppst_timeseries.Generate
module Protocol = Ppst.Protocol

(* one seeded pair, m <> n (band 1 still feasible), d = 2 *)
let max_value = 30
let x = Generate.random_vectors ~seed:1201 ~length:6 ~dim:2 ~max_value
let y = Generate.random_vectors ~seed:1202 ~length:5 ~dim:2 ~max_value

(* Euclidean needs equal lengths: it runs the client's first n elements *)
let x_lockstep = Series.sub x ~pos:0 ~len:(Series.length y)

(* The smallest modulus at which the packed profile engages for this
   pair under DTW's value bound (test_packing_key_is_minimal pins it):
   one slot per ciphertext.  The packed specs also run at the default
   64-bit key, where packs hold several slots and so their boundaries
   depend on how instances are grouped into rounds. *)
let packed_key_bits = 19

(* Run one session on a loopback channel that records every request and
   reply frame exactly as [Channel.tcp] would encode it. *)
let digest_run ~key_bits ~spec ~x =
  let params = Ppst.Params.make ~key_bits () in
  let server =
    Ppst.Server.create ~params
      ~rng:(Secure_rng.of_seed_string "golden/server")
      ~series:y ~max_value ()
  in
  let buf = Buffer.create (1 lsl 16) in
  let handler req =
    Buffer.add_string buf (Message.encode (Message.Request req));
    let reply = Ppst.Server.handle server req in
    Buffer.add_string buf (Message.encode (Message.Reply reply));
    reply
  in
  let client =
    Ppst.Client.connect ~params ~packing:spec.Protocol.packing
      ~rng:(Secure_rng.of_seed_string "golden/client")
      ~series:x ~max_value ~distance:spec.Protocol.algo (Channel.local handler)
  in
  let packed = Ppst.Client.packing client in
  let d = Protocol.runner_of_spec spec client in
  Ppst.Client.finish client;
  let c = Ppst.Cost.client_ops (Ppst.Client.cost client) in
  let s = Ppst.Server.ops server in
  let ops = Ppst.Cost.(c.encryptions, c.homomorphic, s.encryptions, s.decryptions) in
  (Bigint.to_int_exn d, Digest.to_hex (Digest.string (Buffer.contents buf)), packed, ops)

let gap = [| 3; 3 |]
let wavefront = `Wavefront

(* name, spec, key bits, series, transcript MD5, revealed distance *)
let table =
  [
    ("dtw row-major", Protocol.spec `Dtw, 64, x,
     "ac09b1f6ebc6a90201890e35d2eea6b7", 2324);
    ("dtw anti-diagonal", Protocol.spec ~strategy:wavefront `Dtw, 64, x,
     "4a65c57ba5a98e54b0199768462d86c2", 2324);
    ("dtw band 1", Protocol.spec ~band:1 `Dtw, 64, x,
     "f20dc13e561a75329d175d6e3cb8b918", 2324);
    ("dfd row-major", Protocol.spec `Dfd, 64, x,
     "75cccd6945cba6ae8791c37d25aa39fc", 776);
    ("dfd anti-diagonal", Protocol.spec ~strategy:wavefront `Dfd, 64, x,
     "631208c1d4dc6ec098677d550336cbc0", 776);
    ("dfd band 1", Protocol.spec ~band:1 `Dfd, 64, x,
     "92dbb2ec973b2e746429d480b69e8739", 842);
    ("erp", Protocol.spec ~gap `Erp, 64, x,
     "b6d0d40879745ed76b33200be738d846", 2570);
    ("euclidean", Protocol.spec `Euclidean, 64, x_lockstep,
     "3a17884b937af4245a544a800e06f54d", 2457);
    ("packed dtw row-major", Protocol.spec ~packing:true `Dtw, packed_key_bits, x,
     "7be7bf209e41302f948eefbec39f524d", 2324);
    ("packed dtw anti-diagonal",
     Protocol.spec ~packing:true ~strategy:wavefront `Dtw, packed_key_bits, x,
     "ce697a734cdcee2cc64342a4797199b6", 2324);
    ("packed dfd row-major", Protocol.spec ~packing:true `Dfd, packed_key_bits, x,
     "a6b8718e4f9301c24045571a8ba56881", 776);
    ("packed dfd anti-diagonal",
     Protocol.spec ~packing:true ~strategy:wavefront `Dfd, packed_key_bits, x,
     "6e8e017b3a5253c25678dbc224c8feed", 776);
    ("packed dtw row-major, 64-bit", Protocol.spec ~packing:true `Dtw, 64, x,
     "b214b4f4d60656da4df10872df5f34d3", 2324);
    ("packed dtw anti-diagonal, 64-bit",
     Protocol.spec ~packing:true ~strategy:wavefront `Dtw, 64, x,
     "0abac03f735480f7ff37d8f2238ddbcb", 2324);
    ("packed dfd row-major, 64-bit", Protocol.spec ~packing:true `Dfd, 64, x,
     "d0962b166b6256c91db46fae90cd0d5a", 776);
    ("packed dfd anti-diagonal, 64-bit",
     Protocol.spec ~packing:true ~strategy:wavefront `Dfd, 64, x,
     "7519ef84fae364a7d3db39a0e27e269f", 776);
  ]

(* Crypto-op tallies of the same sessions, keyed by row name: the
   client's encryptions and homomorphic ops, the server's encryptions and
   decryptions.  The digests pin the bytes; these pin the counts a
   session's cost report and the ladder's op-count reconciliation read.
   A packed round counts one client encryption per pack and two
   homomorphic ops per slot (offset add, pack). *)
let ops_table =
  [
    ("dtw row-major", 246, 439, 35, 241);
    ("dtw anti-diagonal", 246, 439, 35, 241);
    ("dtw band 1", 131, 299, 26, 126);
    ("dfd row-major", 565, 758, 64, 560);
    ("dfd anti-diagonal", 565, 758, 64, 560);
    ("dfd band 1", 274, 442, 39, 269);
    ("erp", 367, 666, 45, 361);
    ("euclidean", 5, 129, 15, 1);
    ("packed dtw row-major", 246, 679, 35, 241);
    ("packed dtw anti-diagonal", 246, 679, 35, 241);
    ("packed dfd row-major", 565, 1317, 64, 560);
    ("packed dfd anti-diagonal", 565, 1317, 64, 560);
    ("packed dtw row-major, 64-bit", 86, 679, 35, 81);
    ("packed dtw anti-diagonal, 64-bit", 86, 679, 35, 81);
    ("packed dfd row-major, 64-bit", 153, 1317, 64, 148);
    ("packed dfd anti-diagonal, 64-bit", 151, 1317, 64, 146);
  ]

let check_entry (name, spec, key_bits, x, digest, distance) =
  Alcotest.test_case name `Quick (fun () ->
      let d, md5, packed, (c_enc, c_hom, s_enc, s_dec) = digest_run ~key_bits ~spec ~x in
      Alcotest.(check bool) "packed profile engaged" spec.Protocol.packing packed;
      Alcotest.(check int) "revealed distance" distance d;
      Alcotest.(check string) "transcript MD5" digest md5;
      let _, e_c_enc, e_c_hom, e_s_enc, e_s_dec =
        List.find (fun (n, _, _, _, _) -> n = name) ops_table
      in
      Alcotest.(check int) "client encryptions" e_c_enc c_enc;
      Alcotest.(check int) "client homomorphic" e_c_hom c_hom;
      Alcotest.(check int) "server encryptions" e_s_enc s_enc;
      Alcotest.(check int) "server decryptions" e_s_dec s_dec)

(* The pinned distances are the plaintext ones, so the table itself is
   checked against an independent oracle. *)
let test_distances_are_plaintext () =
  let expect name plain =
    let _, _, _, _, _, d = List.find (fun (n, _, _, _, _, _) -> n = name) table in
    Alcotest.(check int) name plain d
  in
  let banded f = Option.get (f ~band:1 x y) in
  List.iter
    (fun (name, plain) -> expect name plain)
    [
      ("dtw row-major", Distance.dtw_sq x y);
      ("dtw anti-diagonal", Distance.dtw_sq x y);
      ("dtw band 1", banded Distance.dtw_sq_banded);
      ("dfd row-major", Distance.dfd_sq x y);
      ("dfd anti-diagonal", Distance.dfd_sq x y);
      ("dfd band 1", banded Distance.dfd_sq_banded);
      ("erp", Distance.erp_sq ~gap x y);
      ("euclidean", Distance.euclidean_sq x_lockstep y);
      ("packed dtw row-major", Distance.dtw_sq x y);
      ("packed dfd anti-diagonal", Distance.dfd_sq x y);
    ]

let test_packing_key_is_minimal () =
  let spec = Protocol.spec ~packing:true `Dtw in
  let _, _, below, _ = digest_run ~key_bits:(packed_key_bits - 1) ~spec ~x in
  Alcotest.(check bool) "no packing one bit below" false below

let () =
  Alcotest.run "golden"
    [
      ("transcripts", List.map check_entry table);
      ( "table",
        [
          Alcotest.test_case "distances are plaintext" `Quick
            test_distances_are_plaintext;
          Alcotest.test_case "packed key is minimal" `Quick
            test_packing_key_is_minimal;
        ] );
    ]
