(* Tests for the Domain worker-pool execution layer (lib/parallel) and
   for the protocol's determinism contract on top of it: a seeded session
   must produce a bit-identical wire transcript at any pool size, because
   all randomness is consumed sequentially before each parallel fan-out. *)

open Ppst.Import
module Pool = Ppst_parallel.Pool
module Generate = Ppst_timeseries.Generate

let with_pool n f =
  let pool = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* --- pool semantics --------------------------------------------------- *)

let test_map_array_matches_sequential () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          List.iter
            (fun len ->
              let input = Array.init len (fun i -> i) in
              let f i = (i * 31) + (i mod 7) in
              Alcotest.(check (array int))
                (Printf.sprintf "size %d, len %d" size len)
                (Array.map f input)
                (Pool.map_array pool f input))
            [ 0; 1; 2; 3; 4; 5; 16; 100 ]))
    [ 1; 2; 3; 4; 8 ]

let test_order_preserved_on_uneven_work () =
  (* Skew the per-item cost so late chunks finish first; order must not
     depend on completion timing. *)
  with_pool 4 (fun pool ->
      let busy i =
        let n = if i < 8 then 20_000 else 10 in
        let acc = ref i in
        for _ = 1 to n do
          acc := (!acc * 31) land 0xFFFF
        done;
        (i, !acc)
      in
      let input = Array.init 32 Fun.id in
      Alcotest.(check (array (pair int int)))
        "order" (Array.map busy input)
        (Pool.map_array pool busy input))

let test_map_matches_list_map () =
  with_pool 3 (fun pool ->
      let xs = List.init 33 Fun.id in
      Alcotest.(check (list int)) "map" (List.map succ xs) (Pool.map pool succ xs))

let test_sequential_pool () =
  Alcotest.(check int) "size" 1 (Pool.size Pool.sequential);
  let a = Array.init 10 string_of_int in
  Alcotest.(check (array string))
    "identity" a
    (Pool.map_array Pool.sequential Fun.id a)

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          let f i = if i = 37 then raise (Boom i) else i in
          Alcotest.check_raises
            (Printf.sprintf "size %d" size)
            (Boom 37)
            (fun () -> ignore (Pool.map_array pool f (Array.init 64 Fun.id)))))
    [ 1; 2; 4 ]

let test_pool_survives_exception () =
  (* A raising task must not wedge the workers for the next map. *)
  with_pool 4 (fun pool ->
      (try ignore (Pool.map_array pool (fun _ -> failwith "boom") (Array.make 16 ()))
       with Failure _ -> ());
      let input = Array.init 16 Fun.id in
      Alcotest.(check (array int))
        "after exception" (Array.map succ input)
        (Pool.map_array pool succ input))

let test_shutdown_idempotent () =
  let pool = Pool.create 3 in
  Pool.shutdown pool;
  Pool.shutdown pool

(* Background tasks share one Domain: the earlier tasks are the slower
   ones, so tasks running side by side would log out of order.  A task
   that raises re-raises at its own await, and the next task still
   runs. *)
let test_background_in_order () =
  let lock = Mutex.create () in
  let log = ref [] in
  let task i () =
    Unix.sleepf (0.002 *. float_of_int (8 - i));
    Mutex.lock lock;
    log := i :: !log;
    Mutex.unlock lock;
    i
  in
  let first = List.init 8 (fun i -> Pool.background (task i)) in
  let failing = Pool.background (fun () -> raise (Boom 8)) in
  let last = Pool.background (task 9) in
  List.iteri (fun i t -> Alcotest.(check int) "result" i (Pool.await t)) first;
  Alcotest.check_raises "re-raised at await" (Boom 8) (fun () -> Pool.await failing);
  Alcotest.(check int) "task after the failure" 9 (Pool.await last);
  Alcotest.(check (list int)) "submission order" [ 0; 1; 2; 3; 4; 5; 6; 7; 9 ]
    (List.rev !log)

let test_create_rejects_zero () =
  Alcotest.check_raises "create 0"
    (Invalid_argument "Pool.create: size must be >= 1") (fun () ->
      ignore (Pool.create 0))

(* --- transcript determinism across pool sizes -------------------------- *)

let det_x = Generate.ecg_int ~seed:41 ~length:6 ~max_value:50
let det_y = Generate.ecg_int ~seed:42 ~length:5 ~max_value:50

(* Run one full in-process session with every request and reply captured
   byte-for-byte (the exact encoding [Channel.tcp] would frame), and
   return the revealed distance, a digest of that transcript and the
   channel's accounting. *)
let digest_run ~jobs ~decryption ~distance ~runner =
  with_pool jobs (fun workers ->
      let server =
        Ppst.Server.create ~decryption ~workers
          ~rng:(Secure_rng.of_seed_string "det/server")
          ~series:det_y ~max_value:50 ()
      in
      let buf = Buffer.create (1 lsl 16) in
      let handler req =
        Buffer.add_string buf (Message.encode (Message.Request req));
        let reply = Ppst.Server.handle server req in
        Buffer.add_string buf (Message.encode (Message.Reply reply));
        reply
      in
      let channel = Channel.local handler in
      let client =
        Ppst.Client.connect ~workers
          ~rng:(Secure_rng.of_seed_string "det/client")
          ~series:det_x ~max_value:50 ~distance channel
      in
      let d = runner client in
      Ppst.Client.finish client;
      ( Bigint.to_int_exn d,
        Digest.to_hex (Digest.string (Buffer.contents buf)),
        Channel.stats channel ))

let check_deterministic ~decryption ~distance ~runner ~expected name =
  let runs =
    List.map
      (fun jobs -> digest_run ~jobs ~decryption ~distance ~runner)
      [ 1; 4 ]
  in
  let d1, t1, _ = List.hd runs in
  Alcotest.(check int) (name ^ ": plaintext distance") expected d1;
  List.iteri
    (fun i (d, t, _) ->
      Alcotest.(check int) (Printf.sprintf "%s: distance (run %d)" name i) d1 d;
      Alcotest.(check string)
        (Printf.sprintf "%s: transcript digest (run %d)" name i)
        t1 t)
    runs

let test_dtw_transcript_identical () =
  check_deterministic ~decryption:`Crt ~distance:`Dtw
    ~runner:Ppst.Secure_dp.(run dtw Full Anti_diagonal)
    ~expected:(Distance.dtw_sq det_x det_y)
    "wavefront DTW (CRT)"

let test_dfd_transcript_identical () =
  check_deterministic ~decryption:`Standard ~distance:`Dfd
    ~runner:Ppst.Secure_dp.(run dfd Full Anti_diagonal)
    ~expected:(Distance.dfd_sq det_x det_y)
    "wavefront DFD (standard)"

(* --- telemetry must observe without perturbing -------------------------- *)

(* The determinism contract extends to observability: a seeded transcript
   must be bit-identical whether a --trace-out JSONL sink is recording
   every span and round or telemetry is fully disabled.  The trace itself
   must pass the leakage lint and account for exactly the rounds and
   bytes the channel counted. *)
let test_transcript_identical_with_telemetry () =
  let module Telemetry = Ppst_telemetry.Telemetry in
  let module R = Ppst_telemetry.Trace_reader in
  let run () =
    digest_run ~jobs:1 ~decryption:`Crt ~distance:`Dtw
      ~runner:Ppst.Secure_dp.(run dtw Full Anti_diagonal)
  in
  Telemetry.configure ();
  (* sinks off *)
  let d_off, t_off, _ = run () in
  let trace = Filename.temp_file "ppst_test_det" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.configure ();
      Sys.remove trace)
    (fun () ->
      Telemetry.configure ~trace_out:trace ();
      let d_on, t_on, stats = run () in
      Telemetry.configure ();
      (* flush the file sink *)
      Alcotest.(check int) "distance unchanged" d_off d_on;
      Alcotest.(check string) "transcript digest unchanged" t_off t_on;
      let entries = R.read_file trace in
      Alcotest.(check bool) "trace non-empty" true (entries <> []);
      Alcotest.(check (list string)) "leakage lint clean" []
        (List.filter_map R.lint_entry entries);
      let s = R.summarize entries in
      Alcotest.(check int) "trace round bytes = Stats bytes"
        (Stats.total_bytes stats) s.R.total_round_bytes;
      Alcotest.(check int) "trace rounds = Stats rounds" (Stats.rounds stats)
        s.R.total_rounds)

(* --- Paillier batch entry points --------------------------------------- *)

let test_paillier_batches_match_sequential () =
  let rng = Secure_rng.of_seed_string "batch" in
  let pk, sk = Paillier.keygen ~bits:64 rng in
  with_pool 4 (fun workers ->
      let ms = Array.init 37 (fun i -> Bigint.of_int ((i * 131) mod 1000)) in
      (* Same seed, two pool sizes: the ciphertexts must equal a loop of
         [encrypt] because the unit draws happen sequentially in element
         order either way. *)
      let reference =
        let r = Secure_rng.of_seed_string "batch/enc" in
        Array.map (Paillier.encrypt pk r) ms
      in
      let enc_with w =
        let r = Secure_rng.of_seed_string "batch/enc" in
        Paillier.encrypt_batch_sk ~workers:w sk r ms
      in
      let seq = enc_with Pool.sequential and par = enc_with workers in
      Array.iteri
        (fun i c ->
          let v = Paillier.ciphertext_to_bigint c in
          Alcotest.(check bool)
            (Printf.sprintf "ciphertext %d" i)
            true
            (Bigint.equal v (Paillier.ciphertext_to_bigint seq.(i))
            && Bigint.equal v (Paillier.ciphertext_to_bigint par.(i))))
        reference;
      Array.iteri
        (fun i c ->
          Alcotest.(check bool)
            (Printf.sprintf "decrypt %d" i)
            true
            (Bigint.equal ms.(i) (Paillier.decrypt sk c)))
        seq;
      let dec_std = Paillier.decrypt_batch ~workers sk seq in
      let dec_crt = Paillier.decrypt_crt_batch ~workers sk seq in
      Array.iteri
        (fun i m ->
          Alcotest.(check bool)
            (Printf.sprintf "batch decrypt %d" i)
            true
            (Bigint.equal ms.(i) m && Bigint.equal ms.(i) dec_crt.(i)))
        dec_std)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_array = Array.map" `Quick
            test_map_array_matches_sequential;
          Alcotest.test_case "order under uneven work" `Quick
            test_order_preserved_on_uneven_work;
          Alcotest.test_case "map = List.map" `Quick test_map_matches_list_map;
          Alcotest.test_case "sequential pool" `Quick test_sequential_pool;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool survives exception" `Quick
            test_pool_survives_exception;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "create 0 rejected" `Quick test_create_rejects_zero;
          Alcotest.test_case "background tasks in submission order" `Quick
            test_background_in_order;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "DTW transcript, pool 1 vs 4" `Quick
            test_dtw_transcript_identical;
          Alcotest.test_case "DFD transcript, pool 1 vs 4" `Quick
            test_dfd_transcript_identical;
          Alcotest.test_case "transcript, telemetry on vs off" `Quick
            test_transcript_identical_with_telemetry;
          Alcotest.test_case "Paillier batch = sequential" `Quick
            test_paillier_batches_match_sequential;
        ] );
    ]
