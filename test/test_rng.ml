(* Tests for the ChaCha20 block function (RFC 8439 vectors) and the
   CSPRNG built on it: determinism, independence of seeds, range
   invariants, and coarse uniformity checks. *)

open Ppst_bigint
open Ppst_rng

let hex_to_string h =
  let h = String.concat "" (String.split_on_char ' ' h) in
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* RFC 8439 section 2.3.2 test vector. *)
let rfc_key =
  hex_to_string
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

let rfc_nonce = hex_to_string "000000090000004a00000000"

let rfc_keystream =
  hex_to_string
    ("10f1e7e4d13b5915500fdd1fa32071c4" ^ "c7d1f4c733c068030422aa9ac3d46c4e"
   ^ "d2826446079faa0914c2d705d98b02a2" ^ "b5129cd1de164eb9cbd083e8a2503c4e")

let test_rfc8439_block () =
  let key = Chacha20.key_of_string rfc_key in
  let nonce = Chacha20.nonce_of_string rfc_nonce in
  let block = Chacha20.block key nonce 1 in
  Alcotest.(check string) "RFC 8439 2.3.2 keystream" rfc_keystream
    (Bytes.to_string block)

let test_block_counter_distinct () =
  let key = Chacha20.key_of_string rfc_key in
  let nonce = Chacha20.nonce_of_string rfc_nonce in
  let b0 = Bytes.to_string (Chacha20.block key nonce 0) in
  let b1 = Bytes.to_string (Chacha20.block key nonce 1) in
  Alcotest.(check bool) "distinct blocks" true (b0 <> b1)

let test_key_nonce_validation () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Chacha20.key_of_string: need 32 bytes") (fun () ->
      ignore (Chacha20.key_of_string "short"));
  Alcotest.check_raises "short nonce"
    (Invalid_argument "Chacha20.nonce_of_string: need 12 bytes") (fun () ->
      ignore (Chacha20.nonce_of_string "short"))

(* The array-based block function [Chacha20.block] replaced (state in a
   16-entry array, one quarter round per call), kept as the oracle for
   the unrolled version. *)
module Oracle = struct
  let mask32 = 0xFFFFFFFF
  let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

  let quarter_round st a b c d =
    st.(a) <- (st.(a) + st.(b)) land mask32;
    st.(d) <- rotl32 (st.(d) lxor st.(a)) 16;
    st.(c) <- (st.(c) + st.(d)) land mask32;
    st.(b) <- rotl32 (st.(b) lxor st.(c)) 12;
    st.(a) <- (st.(a) + st.(b)) land mask32;
    st.(d) <- rotl32 (st.(d) lxor st.(a)) 8;
    st.(c) <- (st.(c) + st.(d)) land mask32;
    st.(b) <- rotl32 (st.(b) lxor st.(c)) 7

  let words s =
    Array.init (String.length s / 4) (fun i ->
        Int32.to_int (String.get_int32_le s (4 * i)) land mask32)

  let block ~key ~nonce counter =
    let init =
      Array.concat
        [ [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |]; words key;
          [| counter land mask32 |]; words nonce ]
    in
    let st = Array.copy init in
    for _ = 1 to 10 do
      quarter_round st 0 4 8 12;
      quarter_round st 1 5 9 13;
      quarter_round st 2 6 10 14;
      quarter_round st 3 7 11 15;
      quarter_round st 0 5 10 15;
      quarter_round st 1 6 11 12;
      quarter_round st 2 7 8 13;
      quarter_round st 3 4 9 14
    done;
    let out = Bytes.create 64 in
    Array.iteri
      (fun i w -> Bytes.set_int32_le out (4 * i) (Int32.of_int ((w + init.(i)) land mask32)))
      st;
    Bytes.to_string out
end

let test_block_matches_oracle () =
  Alcotest.(check string) "oracle reproduces RFC 8439 2.3.2" rfc_keystream
    (Oracle.block ~key:rfc_key ~nonce:rfc_nonce 1);
  let st = Random.State.make [| 8439 |] in
  let draw n = String.init n (fun _ -> Char.chr (Random.State.int st 256)) in
  for i = 1 to 10_000 do
    let key = draw 32 and nonce = draw 12 in
    (* full 32-bit counters, and a few wider ones that must wrap *)
    let counter =
      if i mod 100 = 0 then Random.State.bits st lsl 20
      else Random.State.bits st lor (Random.State.int st 4 lsl 30)
    in
    let got =
      Bytes.to_string
        (Chacha20.block (Chacha20.key_of_string key) (Chacha20.nonce_of_string nonce) counter)
    in
    if got <> Oracle.block ~key ~nonce counter then
      Alcotest.failf "block %d differs from the array oracle (counter %d)" i counter
  done

let test_deterministic_streams () =
  let a = Secure_rng.of_seed_string "determinism-test" in
  let b = Secure_rng.of_seed_string "determinism-test" in
  Alcotest.(check string) "same bytes" (Secure_rng.bytes a 100) (Secure_rng.bytes b 100)

let test_different_seeds_diverge () =
  let a = Secure_rng.of_seed_string "seed-A" in
  let b = Secure_rng.of_seed_string "seed-B" in
  Alcotest.(check bool) "different streams" true
    (Secure_rng.bytes a 64 <> Secure_rng.bytes b 64)

let test_seed_too_short () =
  Alcotest.check_raises "short seed"
    (Invalid_argument "Secure_rng.of_seed_bytes: need at least 16 bytes of seed")
    (fun () -> ignore (Secure_rng.of_seed_bytes "short"))

let test_system_rng () =
  (* /dev/urandom exists in the container; two system generators must
     produce different output. *)
  let a = Secure_rng.system () and b = Secure_rng.system () in
  Alcotest.(check bool) "system rngs independent" true
    (Secure_rng.bytes a 32 <> Secure_rng.bytes b 32)

let test_bits_bound () =
  let rng = Secure_rng.of_seed_string "bits-bound" in
  List.iter
    (fun nbits ->
      for _ = 1 to 50 do
        let v = Secure_rng.bits rng nbits in
        Alcotest.(check bool)
          (Printf.sprintf "%d bits" nbits)
          true
          (Bigint.num_bits v <= nbits && not (Bigint.is_negative v))
      done)
    [ 1; 7; 8; 9; 31; 32; 33; 64; 127 ]

let test_below_bound () =
  let rng = Secure_rng.of_seed_string "below-bound" in
  let bound = Bigint.of_string "1000000000000000000000" in
  for _ = 1 to 200 do
    let v = Secure_rng.below rng bound in
    Alcotest.(check bool) "in [0, bound)" true
      ((not (Bigint.is_negative v)) && Bigint.compare v bound < 0)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Secure_rng.below: bound must be positive") (fun () ->
      ignore (Secure_rng.below rng Bigint.zero))

let test_below_hits_all_residues () =
  (* with bound 4, all four values should appear in 200 draws *)
  let rng = Secure_rng.of_seed_string "below-all" in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Bigint.to_int_exn (Secure_rng.below rng (Bigint.of_int 4))) <- true
  done;
  Alcotest.(check bool) "all residues" true (Array.for_all Fun.id seen)

let test_in_range () =
  let rng = Secure_rng.of_seed_string "in-range" in
  let lo = Bigint.of_int 100 and hi = Bigint.of_int 110 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 500 do
    let v = Secure_rng.in_range rng ~lo ~hi in
    Alcotest.(check bool) "in [lo, hi]" true
      (Bigint.compare lo v <= 0 && Bigint.compare v hi <= 0);
    if Bigint.equal v lo then seen_lo := true;
    if Bigint.equal v hi then seen_hi := true
  done;
  Alcotest.(check bool) "inclusive endpoints reached" true (!seen_lo && !seen_hi);
  Alcotest.check_raises "lo > hi" (Invalid_argument "Secure_rng.in_range: lo > hi")
    (fun () -> ignore (Secure_rng.in_range rng ~lo:hi ~hi:lo))

let test_int_uniformity_coarse () =
  (* coarse uniformity smoke test: 10 buckets, 5000 draws; each bucket
     must hold 350-650 (far outside what a fair generator would miss) *)
  let rng = Secure_rng.of_seed_string "uniformity" in
  let buckets = Array.make 10 0 in
  for _ = 1 to 5000 do
    let v = Secure_rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d = %d" i c) true
        (c > 350 && c < 650))
    buckets

(* [int] draws on native ints what [below] draws on Bigints: two
   generators seeded alike must agree on every value, bounds of 1 to 62
   bits, and end at the same next byte. *)
let test_int_equals_below () =
  let a = Secure_rng.of_seed_string "int-vs-below" in
  let b = Secure_rng.of_seed_string "int-vs-below" in
  let spread = Secure_rng.of_seed_string "int-vs-below-bounds" in
  for nbits = 1 to 62 do
    let low = 1 lsl (nbits - 1) in
    let bounds = [ low; low + (low - 1); low + Secure_rng.int spread low ] in
    List.iter
      (fun bound ->
        for _ = 1 to 500 do
          let fast = Secure_rng.int a bound in
          let reference = Bigint.to_int_exn (Secure_rng.below b (Bigint.of_int bound)) in
          if fast <> reference then
            Alcotest.failf "bound %d: int %d, below %d" bound fast reference
        done)
      bounds
  done;
  Alcotest.(check int) "same next byte" (Secure_rng.byte b) (Secure_rng.byte a)

(* [bits] against the formula it had when it read one byte at a time:
   the same bytes, the top one masked to the requested width. *)
let test_bits_byte_formula () =
  let reference t nbits =
    let nbytes = (nbits + 7) / 8 in
    let buf = Bytes.init nbytes (fun _ -> Char.chr (Secure_rng.byte t)) in
    let excess = (nbytes * 8) - nbits in
    if excess > 0 then
      Bytes.set buf 0 (Char.chr (Char.code (Bytes.get buf 0) land (0xFF lsr excess)));
    Bigint.of_bytes_be (Bytes.to_string buf)
  in
  let a = Secure_rng.of_seed_string "bits-formula" in
  let b = Secure_rng.of_seed_string "bits-formula" in
  for nbits = 1 to 700 do
    Alcotest.check
      (Alcotest.testable Bigint.pp Bigint.equal)
      (Printf.sprintf "%d bits" nbits)
      (reference b nbits) (Secure_rng.bits a nbits)
  done;
  Alcotest.(check string) "bytes alike"
    (String.init 300 (fun _ -> Char.chr (Secure_rng.byte b)))
    (Secure_rng.bytes a 300);
  Alcotest.(check int) "same next byte" (Secure_rng.byte b) (Secure_rng.byte a)

let test_shuffle_permutation () =
  let rng = Secure_rng.of_seed_string "shuffle" in
  let arr = Array.init 50 Fun.id in
  let shuffled = Array.copy arr in
  Secure_rng.shuffle_in_place rng shuffled;
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  Alcotest.(check bool) "is permutation" true (sorted = arr);
  Alcotest.(check bool) "actually moved" true (shuffled <> arr)

let test_shuffle_all_positions () =
  (* every element must be able to reach every position: shuffle [0;1;2]
     many times and count position occupancy *)
  let rng = Secure_rng.of_seed_string "shuffle-positions" in
  let counts = Array.make_matrix 3 3 0 in
  for _ = 1 to 600 do
    let arr = [| 0; 1; 2 |] in
    Secure_rng.shuffle_in_place rng arr;
    Array.iteri (fun pos v -> counts.(v).(pos) <- counts.(v).(pos) + 1) arr
  done;
  Array.iteri
    (fun v row ->
      Array.iteri
        (fun pos c ->
          Alcotest.(check bool)
            (Printf.sprintf "value %d position %d count %d" v pos c)
            true (c > 120 && c < 280))
        row)
    counts

let test_byte_stream_no_short_cycle () =
  (* 4096 bytes should not contain a repeated 64-byte block back-to-back *)
  let rng = Secure_rng.of_seed_string "cycle-check" in
  let s = Secure_rng.bytes rng 4096 in
  let ok = ref true in
  for i = 0 to (4096 / 64) - 2 do
    if String.sub s (i * 64) 64 = String.sub s ((i + 1) * 64) 64 then ok := false
  done;
  Alcotest.(check bool) "no repeated blocks" true !ok

let () =
  Alcotest.run "rng"
    [
      ( "chacha20",
        [
          Alcotest.test_case "RFC 8439 block vector" `Quick test_rfc8439_block;
          Alcotest.test_case "counter separates blocks" `Quick test_block_counter_distinct;
          Alcotest.test_case "key/nonce validation" `Quick test_key_nonce_validation;
          Alcotest.test_case "10,000 blocks = array oracle" `Quick test_block_matches_oracle;
        ] );
      ( "secure_rng",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_deterministic_streams;
          Alcotest.test_case "seeds diverge" `Quick test_different_seeds_diverge;
          Alcotest.test_case "short seed rejected" `Quick test_seed_too_short;
          Alcotest.test_case "system generator" `Quick test_system_rng;
          Alcotest.test_case "bits bound" `Quick test_bits_bound;
          Alcotest.test_case "below bound" `Quick test_below_bound;
          Alcotest.test_case "below hits all residues" `Quick test_below_hits_all_residues;
          Alcotest.test_case "in_range inclusive" `Quick test_in_range;
          Alcotest.test_case "coarse uniformity" `Quick test_int_uniformity_coarse;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "shuffle covers positions" `Quick test_shuffle_all_positions;
          Alcotest.test_case "no short cycles" `Quick test_byte_stream_no_short_cycle;
          Alcotest.test_case "int = below" `Quick test_int_equals_below;
          Alcotest.test_case "bits = byte formula" `Quick test_bits_byte_formula;
        ] );
    ]
