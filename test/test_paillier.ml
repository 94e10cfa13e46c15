(* Tests for the Paillier cryptosystem: round-trips, the homomorphisms
   the protocols rely on, CRT decryption equivalence, probabilistic
   encryption, the noise sources, packing, serialization, and error
   paths. *)

open Ppst_bigint
open Ppst_paillier

let eq_bi = Alcotest.testable Bigint.pp Bigint.equal

let rng () = Ppst_rng.Secure_rng.of_seed_string "paillier-tests"

(* One shared small key for the bulk of the tests (fresh keygen per test
   would dominate run time), plus fresh keys where key identity matters. *)
let shared_rng = rng ()
let pk, sk = Paillier.keygen ~bits:64 shared_rng

let qtest name ?(count = 100) gen ~print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let gen_plain =
  (* plaintexts across the full [0, n) range *)
  QCheck2.Gen.map
    (fun s -> Bigint.erem (Bigint.abs (Bigint.of_string s)) pk.Paillier.n)
    QCheck2.Gen.(string_size ~gen:(char_range '0' '9') (int_range 1 25))

let test_keygen_sizes () =
  List.iter
    (fun bits ->
      let r = rng () in
      let pk, _sk = Paillier.keygen ~bits r in
      Alcotest.(check int) (Printf.sprintf "%d-bit modulus" bits) bits
        (Bigint.num_bits pk.Paillier.n))
    [ 32; 64; 128; 256 ]

let test_keygen_too_small () =
  Alcotest.check_raises "below 16 bits"
    (Invalid_argument "Paillier.keygen: modulus below 16 bits") (fun () ->
      ignore (Paillier.keygen ~bits:8 (rng ())))

let test_roundtrip_basic () =
  let r = rng () in
  List.iter
    (fun v ->
      let m = Bigint.of_int v in
      let c = Paillier.encrypt pk r m in
      Alcotest.check eq_bi (string_of_int v) m (Paillier.decrypt sk c))
    [ 0; 1; 2; 42; 123456; 99999999 ]

let test_roundtrip_extremes () =
  let r = rng () in
  let n1 = Bigint.pred pk.Paillier.n in
  Alcotest.check eq_bi "n-1" n1 (Paillier.decrypt sk (Paillier.encrypt pk r n1));
  Alcotest.check eq_bi "0" Bigint.zero
    (Paillier.decrypt sk (Paillier.encrypt pk r Bigint.zero))

let test_plaintext_range_checked () =
  let r = rng () in
  List.iter
    (fun m ->
      match Paillier.encrypt pk r m with
      | _ -> Alcotest.fail "expected Invalid_plaintext"
      | exception Paillier.Invalid_plaintext _ -> ())
    [ Bigint.neg Bigint.one; pk.Paillier.n; Bigint.succ pk.Paillier.n ]

let prop_roundtrip =
  qtest "decrypt . encrypt = id" gen_plain ~print:Bigint.to_string (fun m ->
      let r = rng () in
      Bigint.equal m (Paillier.decrypt sk (Paillier.encrypt pk r m)))

let prop_crt_equals_standard =
  qtest "decrypt_crt = decrypt" gen_plain ~print:Bigint.to_string (fun m ->
      let r = rng () in
      let c = Paillier.encrypt pk r m in
      Bigint.equal (Paillier.decrypt sk c) (Paillier.decrypt_crt sk c))

let prop_additive =
  qtest "Dec(E(a) + E(b)) = a + b mod n"
    (QCheck2.Gen.pair gen_plain gen_plain)
    ~print:(fun (a, b) -> Bigint.to_string a ^ ", " ^ Bigint.to_string b)
    (fun (a, b) ->
      let r = rng () in
      let c = Paillier.add pk (Paillier.encrypt pk r a) (Paillier.encrypt pk r b) in
      Bigint.equal (Bigint.erem (Bigint.add a b) pk.Paillier.n) (Paillier.decrypt_crt sk c))

let prop_add_plain =
  qtest "Dec(E(a) +p k) = a + k mod n"
    (QCheck2.Gen.pair gen_plain gen_plain)
    ~print:(fun (a, b) -> Bigint.to_string a ^ ", " ^ Bigint.to_string b)
    (fun (a, k) ->
      let r = rng () in
      let c = Paillier.add_plain pk (Paillier.encrypt pk r a) k in
      Bigint.equal (Bigint.erem (Bigint.add a k) pk.Paillier.n) (Paillier.decrypt_crt sk c))

let prop_add_plain_negative =
  qtest "Dec(E(a) +p (-k)) = a - k mod n"
    (QCheck2.Gen.pair gen_plain gen_plain)
    ~print:(fun (a, b) -> Bigint.to_string a ^ ", " ^ Bigint.to_string b)
    (fun (a, k) ->
      let r = rng () in
      let c = Paillier.add_plain pk (Paillier.encrypt pk r a) (Bigint.neg k) in
      Bigint.equal (Bigint.erem (Bigint.sub a k) pk.Paillier.n) (Paillier.decrypt_crt sk c))

let prop_scalar_mul =
  qtest "Dec(E(a) * k) = a * k mod n"
    (QCheck2.Gen.pair gen_plain gen_plain)
    ~print:(fun (a, b) -> Bigint.to_string a ^ ", " ^ Bigint.to_string b)
    (fun (a, k) ->
      let r = rng () in
      let c = Paillier.scalar_mul pk (Paillier.encrypt pk r a) k in
      Bigint.equal (Bigint.erem (Bigint.mul a k) pk.Paillier.n) (Paillier.decrypt_crt sk c))

let prop_sub =
  qtest "Dec(E(a) - E(b)) = a - b mod n"
    (QCheck2.Gen.pair gen_plain gen_plain)
    ~print:(fun (a, b) -> Bigint.to_string a ^ ", " ^ Bigint.to_string b)
    (fun (a, b) ->
      let r = rng () in
      let c =
        Paillier.add pk (Paillier.encrypt pk r a)
          (Paillier.scalar_mul pk (Paillier.encrypt pk r b) (Bigint.neg Bigint.one))
      in
      Bigint.equal (Bigint.erem (Bigint.sub a b) pk.Paillier.n) (Paillier.decrypt_crt sk c))

let test_probabilistic_encryption () =
  (* same plaintext, different ciphertexts — the property path hiding
     rests on (paper Section 5.5) *)
  let r = rng () in
  let m = Bigint.of_int 777 in
  let c1 = Paillier.encrypt pk r m and c2 = Paillier.encrypt pk r m in
  Alcotest.(check bool) "ciphertexts differ" false (Paillier.equal_ciphertext c1 c2);
  Alcotest.check eq_bi "same plaintext" (Paillier.decrypt_crt sk c1)
    (Paillier.decrypt_crt sk c2)

let test_neg () =
  let r = rng () in
  let m = Bigint.of_int 5 in
  let c = Paillier.scalar_mul pk (Paillier.encrypt pk r m) (Bigint.neg Bigint.one) in
  Alcotest.check eq_bi "n - 5" (Bigint.sub pk.Paillier.n m) (Paillier.decrypt_crt sk c)

let test_key_mismatch () =
  let r = rng () in
  (* a different seed, or this would regenerate the exact same key *)
  let pk2, _sk2 =
    Paillier.keygen ~bits:64 (Ppst_rng.Secure_rng.of_seed_string "other-key")
  in
  let c = Paillier.encrypt pk r (Bigint.of_int 1) in
  let c2 = Paillier.encrypt pk2 r (Bigint.of_int 1) in
  Alcotest.check_raises "add across keys" Paillier.Key_mismatch (fun () ->
      ignore (Paillier.add pk c c2));
  Alcotest.check_raises "decrypt with wrong key" Paillier.Key_mismatch (fun () ->
      ignore (Paillier.decrypt sk c2))

let test_ciphertext_serialization () =
  let r = rng () in
  let m = Bigint.of_int 424242 in
  let c = Paillier.encrypt pk r m in
  let v = Paillier.ciphertext_to_bigint c in
  let c' = Paillier.ciphertext_of_bigint pk v in
  Alcotest.check eq_bi "round-trip" m (Paillier.decrypt_crt sk c');
  (match Paillier.ciphertext_of_bigint pk pk.Paillier.n_squared with
   | _ -> Alcotest.fail "expected range error"
   | exception Paillier.Invalid_plaintext _ -> ());
  (match Paillier.ciphertext_of_bigint pk (Bigint.neg Bigint.one) with
   | _ -> Alcotest.fail "expected range error"
   | exception Paillier.Invalid_plaintext _ -> ())

let test_public_of_modulus () =
  let pk' = Paillier.public_of_modulus pk.Paillier.n ~bits:pk.Paillier.bits in
  let r = rng () in
  let c = Paillier.encrypt pk' r (Bigint.of_int 99) in
  Alcotest.check eq_bi "usable for encryption" (Bigint.of_int 99)
    (Paillier.decrypt_crt sk c);
  (match Paillier.public_of_modulus (Bigint.of_int 16) ~bits:5 with
   | _ -> Alcotest.fail "even modulus accepted"
   | exception Paillier.Invalid_plaintext _ -> ());
  (match Paillier.public_of_modulus pk.Paillier.n ~bits:32 with
   | _ -> Alcotest.fail "wrong bit length accepted"
   | exception Paillier.Invalid_plaintext _ -> ())

let test_key_serialization () =
  let text = Paillier.private_key_to_string sk in
  let pk', sk' = Paillier.private_key_of_string text in
  Alcotest.check eq_bi "same modulus" pk.Paillier.n pk'.Paillier.n;
  let r = rng () in
  let c = Paillier.encrypt pk r (Bigint.of_int 2024) in
  Alcotest.check eq_bi "loaded key decrypts" (Bigint.of_int 2024)
    (Paillier.decrypt_crt sk' c)

let test_key_parse_failures () =
  List.iter
    (fun text ->
      match Paillier.private_key_of_string text with
      | _ -> Alcotest.fail ("accepted: " ^ String.escaped text)
      | exception Paillier.Invalid_plaintext _ -> ())
    [
      "";
      "garbage";
      "ppst-paillier-v1\n";
      "ppst-paillier-v1\np=4\nq=9\n" (* not prime *);
      "ppst-paillier-v1\np=11\nq=11\n" (* equal primes *);
      "ppst-paillier-v1\np=abc\nq=11\n";
    ]

let test_of_primes_validation () =
  (match Paillier.of_primes ~p:(Bigint.of_int 7) ~q:(Bigint.of_int 7) with
   | _ -> Alcotest.fail "equal primes accepted"
   | exception Paillier.Invalid_plaintext _ -> ());
  let pk', sk' = Paillier.of_primes ~p:(Bigint.of_int 1009) ~q:(Bigint.of_int 1013) in
  let r = rng () in
  Alcotest.check eq_bi "tiny key works" (Bigint.of_int 500)
    (Paillier.decrypt_crt sk' (Paillier.encrypt pk' r (Bigint.of_int 500)))

let test_homomorphic_chain () =
  (* a long chain mixing all homomorphic ops, mirroring how the DP matrix
     is assembled: E(((a+b)*3 - c) + 7) *)
  let r = rng () in
  let e v = Paillier.encrypt pk r (Bigint.of_int v) in
  let c =
    Paillier.add_plain pk
      (Paillier.add pk
         (Paillier.scalar_mul pk (Paillier.add pk (e 10) (e 20)) (Bigint.of_int 3))
         (Paillier.scalar_mul pk (e 25) (Bigint.neg Bigint.one)))
      (Bigint.of_int 7)
  in
  Alcotest.check eq_bi "chain" (Bigint.of_int (((10 + 20) * 3) - 25 + 7))
    (Paillier.decrypt_crt sk c)

let test_randomness_pool () =
  let r = rng () in
  let pool = Paillier.pool_create pk in
  Alcotest.(check int) "empty" 0 (Paillier.pool_size pool);
  Paillier.pool_refill pk pool r 5;
  Alcotest.(check int) "refilled" 5 (Paillier.pool_size pool);
  let m = Bigint.of_int 777 in
  let c1 = Paillier.encrypt_pooled pk pool r m in
  Alcotest.(check int) "consumed one" 4 (Paillier.pool_size pool);
  Alcotest.check eq_bi "pooled decrypts" m (Paillier.decrypt_crt sk c1);
  (* drain the pool; the next call must fall back to a fresh factor *)
  for _ = 1 to 4 do
    ignore (Paillier.encrypt_pooled pk pool r m)
  done;
  Alcotest.(check int) "drained" 0 (Paillier.pool_size pool);
  let c_fallback = Paillier.encrypt_pooled pk pool r m in
  Alcotest.check eq_bi "fallback decrypts" m (Paillier.decrypt_crt sk c_fallback);
  (* pooled ciphertexts of equal plaintexts stay distinct *)
  Paillier.pool_refill pk pool r 2;
  let a = Paillier.encrypt_pooled pk pool r m in
  let b = Paillier.encrypt_pooled pk pool r m in
  Alcotest.(check bool) "probabilistic" false (Paillier.equal_ciphertext a b)

let test_pool_key_mismatch () =
  let r = rng () in
  let pk2, _ = Paillier.keygen ~bits:64 (Ppst_rng.Secure_rng.of_seed_string "pool-other") in
  let pool = Paillier.pool_create pk in
  Alcotest.check_raises "refill with wrong key" Paillier.Key_mismatch (fun () ->
      Paillier.pool_refill pk2 pool r 1);
  Alcotest.check_raises "encrypt with wrong key" Paillier.Key_mismatch (fun () ->
      ignore (Paillier.encrypt_pooled pk2 pool r Bigint.one))

let test_scalar_mul_special_cases () =
  let r = rng () in
  let m = Bigint.of_int 1234 in
  let c = Paillier.encrypt pk r m in
  Alcotest.check eq_bi "x * 0" Bigint.zero
    (Paillier.decrypt_crt sk (Paillier.scalar_mul pk c Bigint.zero));
  Alcotest.check eq_bi "x * 1" m
    (Paillier.decrypt_crt sk (Paillier.scalar_mul pk c Bigint.one));
  Alcotest.check eq_bi "x * (n-1) = -x mod n"
    (Bigint.sub pk.Paillier.n m)
    (Paillier.decrypt_crt sk (Paillier.scalar_mul pk c (Bigint.pred pk.Paillier.n)))

let test_larger_key_roundtrip () =
  let r = rng () in
  let pk, sk = Paillier.keygen ~bits:256 r in
  let m = Bigint.of_string "123456789012345678901234567890" in
  Alcotest.check eq_bi "256-bit key" m (Paillier.decrypt_crt sk (Paillier.encrypt pk r m));
  Alcotest.check eq_bi "256-bit standard dec" m
    (Paillier.decrypt sk (Paillier.encrypt pk r m))

(* --- key-holder (CRT) encryption paths --------------------------------- *)

let test_encrypt_sk_identical () =
  (* same seed, same draws: the CRT path must yield the very same bytes.
     Above 64 bits p spans several limbs and, from 512, n^2 reaches the
     kernel's squaring width. *)
  let keys =
    (pk, sk)
    :: List.map
         (fun bits ->
           Paillier.keygen ~bits
             (Ppst_rng.Secure_rng.of_seed_string (Printf.sprintf "sk-paths-%d" bits)))
         [ 256; 512; 1024 ]
  in
  List.iter
    (fun (pk, sk) ->
      let bits = pk.Paillier.bits in
      let m = Bigint.of_int 987654 in
      let c_pk = Paillier.encrypt pk (rng ()) m in
      let c_sk = Paillier.encrypt_sk sk (rng ()) m in
      Alcotest.(check bool) (Printf.sprintf "encrypt_sk = encrypt, %d-bit" bits) true
        (Paillier.equal_ciphertext c_pk c_sk))
    keys

let test_encrypt_batch_sk_identical () =
  (* the reference is a loop of [encrypt] on the same seed: the batch
     draws its units in element order, on one lane or two *)
  let plains = Array.init 7 (fun i -> Bigint.of_int (i * 1000)) in
  let reference = Array.map (Paillier.encrypt pk (rng ())) plains in
  let two = Ppst_parallel.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Ppst_parallel.Pool.shutdown two)
    (fun () ->
      List.iter
        (fun (lanes, workers) ->
          let batch = Paillier.encrypt_batch_sk ~workers sk (rng ()) plains in
          Array.iteri
            (fun i c ->
              Alcotest.(check bool)
                (Printf.sprintf "%d lane(s), element %d" lanes i)
                true
                (Paillier.equal_ciphertext c batch.(i)))
            reference)
        [ (1, Ppst_parallel.Pool.sequential); (2, two) ])

let test_invert_ciphertext () =
  let r = rng () in
  let m = Bigint.of_int 31415 in
  let c = Paillier.encrypt pk r m in
  Alcotest.check eq_bi "Dec(c^-1) = -m mod n"
    (Paillier.decrypt_crt sk (Paillier.scalar_mul pk c (Bigint.neg Bigint.one)))
    (Paillier.decrypt_crt sk (Paillier.invert_ciphertext pk c));
  (* inverting twice is the identity plaintext-wise *)
  Alcotest.check eq_bi "double inverse" m
    (Paillier.decrypt_crt sk
       (Paillier.invert_ciphertext pk (Paillier.invert_ciphertext pk c)))

(* --- offline pool: order, fast refill ------------------------------------ *)

let test_pool_fifo_transcript_identity () =
  (* a pooled run must consume its rng's r-sequence exactly as the
     unpooled run does: FIFO order makes the ciphertext streams
     bit-identical under the same seed *)
  let plains = Array.init 6 (fun i -> Bigint.of_int (i * 37)) in
  let direct =
    let r = rng () in
    Array.map (Paillier.encrypt pk r) plains
  in
  let pooled =
    let r = rng () in
    let pool = Paillier.pool_create pk in
    Paillier.pool_refill pk pool r (Array.length plains);
    Array.map (Paillier.encrypt_pooled pk pool r) plains
  in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "ciphertext %d identical" i)
        true
        (Paillier.equal_ciphertext c pooled.(i)))
    direct

let test_pool_refill_fast () =
  let r = rng () in
  let pool = Paillier.pool_create pk in
  Paillier.pool_refill_fast pk pool r 8;
  Alcotest.(check int) "filled" 8 (Paillier.pool_size pool);
  let m = Bigint.of_int 271828 in
  for i = 1 to 8 do
    let c = Paillier.encrypt_pooled pk pool r m in
    Alcotest.check eq_bi (Printf.sprintf "fast entry %d decrypts" i) m
      (Paillier.decrypt_crt sk c)
  done;
  Alcotest.(check int) "no misses" 0 (Paillier.pool_misses pool)

(* The subgroup-noise paths (the generator alone, the fast refill on one
   and on two lanes) draw h, then one exponent per entry, from the
   caller's rng: seeded alike they must yield the same noise in the same
   order and leave the rng in the same state. *)
let test_noise_paths_agree () =
  let count = 6 and m = Bigint.of_int 4711 in
  let tail r = Ppst_rng.Secure_rng.bits r 64 in
  let via_pool fill =
    let r = rng () in
    let pool = Paillier.pool_create pk in
    fill pool r;
    (* entries are pooled, so the spare rng is never drawn from *)
    let spare = Ppst_rng.Secure_rng.of_seed_string "noise-paths-spare" in
    let cs = Array.init count (fun _ -> Paillier.encrypt_pooled pk pool spare m) in
    Alcotest.(check int) "no misses" 0 (Paillier.pool_misses pool);
    (cs, tail r)
  in
  let reference =
    let r = rng () in
    let g = Paillier.noise_gen_create pk r in
    let cs =
      Array.init count (fun _ ->
          Paillier.encrypt_with_rn pk ~rn:(Paillier.noise_gen_rn g pk r) m)
    in
    (cs, tail r)
  in
  let two = Ppst_parallel.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Ppst_parallel.Pool.shutdown two)
    (fun () ->
      List.iter
        (fun (name, (cs, rest)) ->
          Array.iteri
            (fun i c ->
              Alcotest.(check bool)
                (Printf.sprintf "%s entry %d = noise_gen_rn" name i)
                true
                (Paillier.equal_ciphertext c cs.(i)))
            (fst reference);
          Alcotest.check eq_bi (name ^ ": rng left alike") (snd reference) rest)
        [
          ("pool_refill_fast", via_pool (fun pool r -> Paillier.pool_refill_fast pk pool r count));
          ( "pool_refill_fast, 2 lanes",
            via_pool (fun pool r -> Paillier.pool_refill_fast ~workers:two pk pool r count) );
        ])

let test_noise_gen () =
  let r = rng () in
  let g = Paillier.noise_gen_create pk r in
  let m = Bigint.of_int 1618 in
  let c1 = Paillier.encrypt_with_rn pk ~rn:(Paillier.noise_gen_rn g pk r) m in
  let c2 = Paillier.encrypt_with_rn pk ~rn:(Paillier.noise_gen_rn g pk r) m in
  Alcotest.check eq_bi "decrypts" m (Paillier.decrypt_crt sk c1);
  Alcotest.check eq_bi "decrypts" m (Paillier.decrypt_crt sk c2);
  Alcotest.(check bool) "fresh noise each draw" false
    (Paillier.equal_ciphertext c1 c2);
  let pk2, _ =
    Paillier.keygen ~bits:64 (Ppst_rng.Secure_rng.of_seed_string "noise-other")
  in
  (match Paillier.noise_gen_rn g pk2 r with
   | _ -> Alcotest.fail "wrong-key generator accepted"
   | exception Invalid_argument _ -> ())

let test_pool_hammer () =
  (* the pool is hit from four Domains at once — two producers, two
     consumers.  The mutex-guarded FIFO must neither crash, lose entries
     nor corrupt ciphertexts; afterwards the counters must reconcile:
     every consume either popped an entry or recorded a miss, so
     size = produced - (consumed - misses). *)
  let per_domain = 40 in
  let pool = Paillier.pool_create pk in
  let m = Bigint.of_int 4242 in
  let producers =
    List.map
      (fun seed ->
        Domain.spawn (fun () ->
            let r = Ppst_rng.Secure_rng.of_seed_string seed in
            for _ = 1 to per_domain do
              Paillier.pool_refill pk pool r 1
            done))
      [ "hammer-p1"; "hammer-p2" ]
  in
  let consumers =
    List.map
      (fun seed ->
        Domain.spawn (fun () ->
            let r = Ppst_rng.Secure_rng.of_seed_string seed in
            Array.init per_domain (fun _ -> Paillier.encrypt_pooled pk pool r m)))
      [ "hammer-c1"; "hammer-c2" ]
  in
  List.iter Domain.join producers;
  let batches = List.map Domain.join consumers in
  List.iter
    (fun batch ->
      Array.iter
        (fun c -> Alcotest.check eq_bi "hammered decrypts" m (Paillier.decrypt_crt sk c))
        batch)
    batches;
  let produced = 2 * per_domain and consumed = 2 * per_domain in
  Alcotest.(check int) "counters reconcile"
    (produced - (consumed - Paillier.pool_misses pool))
    (Paillier.pool_size pool)

(* --- plaintext packing --------------------------------------------------- *)

let test_pack_plain_roundtrip () =
  let slot_bits = 7 in
  let capacity = Paillier.pack_capacity pk ~slot_bits in
  (* 64-bit modulus, 1 headroom bit: 63 / 7 = 9 slots *)
  Alcotest.(check int) "capacity" 9 capacity;
  let values = Array.init capacity (fun i -> Bigint.of_int (i * 13 mod 128)) in
  let packed = Paillier.pack_plain pk ~slot_bits values in
  let back = Paillier.unpack_plain ~slot_bits ~count:capacity packed in
  Array.iteri
    (fun i v -> Alcotest.check eq_bi (Printf.sprintf "slot %d" i) v back.(i))
    values;
  (* partial packs round-trip too *)
  let partial = Array.sub values 0 3 in
  let packed = Paillier.pack_plain pk ~slot_bits partial in
  let back = Paillier.unpack_plain ~slot_bits ~count:3 packed in
  Array.iteri (fun i v -> Alcotest.check eq_bi "partial slot" v back.(i)) partial

let test_pack_bounds_checked () =
  let slot_bits = 7 in
  let capacity = Paillier.pack_capacity pk ~slot_bits in
  (* capacity + 1 slots must be rejected: the top slot would eat the
     wrap-guard headroom bit *)
  (match
     Paillier.pack_plain pk ~slot_bits (Array.make (capacity + 1) Bigint.one)
   with
   | _ -> Alcotest.fail "over-capacity pack accepted"
   | exception Invalid_argument _ -> ());
  (match Paillier.pack_plain pk ~slot_bits [||] with
   | _ -> Alcotest.fail "empty pack accepted"
   | exception Invalid_argument _ -> ());
  (* a value needing more than slot_bits bits must be rejected *)
  (match Paillier.pack_plain pk ~slot_bits [| Bigint.of_int 128 |] with
   | _ -> Alcotest.fail "oversized slot value accepted"
   | exception Paillier.Invalid_plaintext _ -> ())

let test_pack_ciphertexts () =
  let r = rng () in
  let slot_bits = 7 in
  let capacity = Paillier.pack_capacity pk ~slot_bits in
  (* exactly at capacity, with boundary values in the extreme slots *)
  let values =
    Array.init capacity (fun i ->
        if i = 0 || i = capacity - 1 then Bigint.of_int 127
        else Bigint.of_int (i * 11 mod 128))
  in
  let cs = Array.map (Paillier.encrypt pk r) values in
  let packed_c = Paillier.pack_ciphertexts pk ~slot_bits cs in
  Alcotest.check eq_bi "homomorphic pack = plaintext pack"
    (Paillier.pack_plain pk ~slot_bits values)
    (Paillier.decrypt_crt sk packed_c);
  let slots =
    Paillier.unpack_plain ~slot_bits ~count:capacity
      (Paillier.decrypt_crt sk packed_c)
  in
  Array.iteri
    (fun i v -> Alcotest.check eq_bi (Printf.sprintf "slot %d" i) v slots.(i))
    values

(* --- ciphertext validation ----------------------------------------------- *)

(* The key holder tests units with p and q; it must accept exactly the
   values Euclid calls coprime to n, including the multiples of one prime
   that random draws never reach. *)
let validator_accepts v =
  match Paillier.validate_ciphertext sk v with
  | _ -> true
  | exception Paillier.Invalid_ciphertext _ -> false

(* Euclid in this file, not Modular.gcd: the oracle shares no code with
   the C kernel. *)
let coprime a b =
  let rec euclid a b = if Bigint.is_zero b then a else euclid b (Bigint.rem a b) in
  Bigint.equal (euclid a b) Bigint.one

let is_unit v = coprime v pk.Paillier.n

let test_validate_fixed () =
  let p = sk.Paillier.p and q = sk.Paillier.q and n = pk.Paillier.n in
  let k = Bigint.of_int 7919 in
  List.iter
    (fun (name, v) -> Alcotest.(check bool) name (is_unit v) (validator_accepts v))
    [
      ("0", Bigint.zero); ("1", Bigint.one); ("p", p); ("q", q);
      ("k*p", Bigint.mul k p); ("k*q", Bigint.mul k q); ("n", n);
      ("n + 1", Bigint.succ n); ("n^2 - 1", Bigint.pred pk.Paillier.n_squared);
    ]

let prop_validate_is_gcd =
  let n2 = pk.Paillier.n_squared in
  let residue =
    QCheck2.Gen.map
      (fun s -> Bigint.erem (Bigint.of_string s) n2)
      QCheck2.Gen.(string_size ~gen:(char_range '0' '9') (int_range 1 45))
  in
  qtest "validate_ciphertext = (gcd(v, n) = 1)"
    QCheck2.Gen.(
      oneof
        [
          residue;
          map (fun k -> Bigint.erem (Bigint.mul k sk.Paillier.p) n2) residue;
          map (fun k -> Bigint.erem (Bigint.mul k sk.Paillier.q) n2) residue;
        ])
    ~print:Bigint.to_string
    (fun v -> Bool.equal (is_unit v) (validator_accepts v))

(* --- the C kernel against the OCaml it replaced ---------------------------- *)

(* The CRT arithmetic that ran in OCaml before each Paillier operation
   became one kernel call, kept as the oracle.  Its constants are
   re-derived from p and q as key assembly derived them then. *)
module Oracle = struct
  type t = {
    pk : Paillier.public_key;
    p : Bigint.t;
    q : Bigint.t;
    p_squared : Bigint.t;
    q_squared : Bigint.t;
    hp : Bigint.t;
    hq : Bigint.t;
    p_inv_mod_q : Bigint.t;
    p2_inv_mod_q2 : Bigint.t;
    ctx_p : Modular.ctx;
    ctx_q : Modular.ctx;
    ctx_p2 : Modular.ctx;
    ctx_q2 : Modular.ctx;
  }

  let make (pk, sk) =
    let p = sk.Paillier.p and q = sk.Paillier.q in
    let p_squared = Bigint.mul p p and q_squared = Bigint.mul q q in
    let ctx_p2 = Modular.make_ctx p_squared and ctx_q2 = Modular.make_ctx q_squared in
    let l x m = Bigint.div (Bigint.pred x) m in
    let g = pk.Paillier.g in
    {
      pk; p; q; p_squared; q_squared;
      hp = Modular.invert (l (Modular.pow_ctx ctx_p2 g (Bigint.pred p)) p) p;
      hq = Modular.invert (l (Modular.pow_ctx ctx_q2 g (Bigint.pred q)) q) q;
      p_inv_mod_q = Modular.invert p q;
      p2_inv_mod_q2 = Modular.invert p_squared q_squared;
      ctx_p = Modular.make_ctx p;
      ctx_q = Modular.make_ctx q;
      ctx_p2;
      ctx_q2;
    }

  let decrypt_crt o v =
    let p1 = Bigint.pred o.p and q1 = Bigint.pred o.q in
    let cp = Bigint.erem v o.p_squared in
    let cq = Bigint.erem v o.q_squared in
    let lp x = Bigint.div (Bigint.pred x) o.p in
    let lq x = Bigint.div (Bigint.pred x) o.q in
    let mp = Bigint.erem (Bigint.mul (lp (Modular.pow_ctx o.ctx_p2 cp p1)) o.hp) o.p in
    let mq = Bigint.erem (Bigint.mul (lq (Modular.pow_ctx o.ctx_q2 cq q1)) o.hq) o.q in
    let diff = Bigint.erem (Bigint.sub mq mp) o.q in
    let h = Bigint.erem (Bigint.mul diff o.p_inv_mod_q) o.q in
    Bigint.erem (Bigint.add mp (Bigint.mul o.p h)) o.pk.Paillier.n

  (* r^n mod n^2: one full-width power, or the key holder's two lifts
     and Garner mod q^2 *)
  let rn_of_unit o r = Modular.pow_ctx o.pk.Paillier.ctx_n2 r o.pk.Paillier.n

  let rn_of_unit_sk o r =
    let lift ctx_prime ctx_square prime other =
      Modular.pow_ctx ctx_square (Modular.pow_ctx ctx_prime r other) prime
    in
    let rp = lift o.ctx_p o.ctx_p2 o.p o.q in
    let rq = lift o.ctx_q o.ctx_q2 o.q o.p in
    let diff = Bigint.erem (Bigint.sub rq rp) o.q_squared in
    let h = Modular.mul_ctx o.ctx_q2 diff o.p2_inv_mod_q2 in
    Bigint.add rp (Bigint.mul o.p_squared h)

  (* g^m rn mod n^2 with g = n + 1 *)
  let seal o rn m =
    let n = o.pk.Paillier.n and n2 = o.pk.Paillier.n_squared in
    Bigint.erem (Bigint.mul (Bigint.erem (Bigint.succ (Bigint.mul m n)) n2) rn) n2

  (* an encryption drawing its unit as Paillier does: below n until
     coprime to it *)
  let encrypt o ~noise rng m =
    let n = o.pk.Paillier.n in
    let rec draw () =
      let r = Ppst_rng.Secure_rng.below rng n in
      if coprime r n then r else draw ()
    in
    seal o (noise o (draw ())) m
end

(* Keys whose p and q differ in limb count (the odd widths), from 16 to
   2,048 bits, each also with its primes swapped, so that p > q and
   Garner's m_p can exceed q. *)
let kernel_keys =
  List.concat_map
    (fun bits ->
      let ((_, sk) as key) =
        Paillier.keygen ~bits
          (Ppst_rng.Secure_rng.of_seed_string (Printf.sprintf "kernel-%d" bits))
      in
      let swapped = Paillier.of_primes ~p:sk.Paillier.q ~q:sk.Paillier.p in
      [ (key, Oracle.make key); (swapped, Oracle.make swapped) ])
    [ 16; 17; 33; 64; 65; 127; 128; 129; 256; 257; 512; 513; 1024; 2048 ]
  |> Array.of_list

let key_name ((pk, sk), _) =
  Printf.sprintf "%d-bit key, p %s q" pk.Paillier.bits
    (if Bigint.compare sk.Paillier.p sk.Paillier.q < 0 then "<" else ">")

(* A key (the large ones rarely, to keep the suite fast) and a seed. *)
let gen_kernel_case =
  QCheck2.Gen.(
    pair
      (frequency
         [ (8, int_range 0 (Array.length kernel_keys - 5)); (1, int_range 0 (Array.length kernel_keys - 1)) ])
      (string_size ~gen:printable (return 16)))

let print_kernel_case (i, seed) = Printf.sprintf "%s, seed %S" (key_name kernel_keys.(i)) seed

(* A residue below m from the case's rng, and one that is a unit mod n. *)
let residue rng m = Ppst_rng.Secure_rng.below rng m

let unit_residue rng n m =
  let rec draw () =
    let v = residue rng m in
    if coprime v n then v else draw ()
  in
  draw ()

let prop_decrypt_crt_kernel =
  qtest "decrypt_crt = oracle = decrypt" ~count:150 gen_kernel_case ~print:print_kernel_case
    (fun (i, seed) ->
      let ((pk, sk), o) = kernel_keys.(i) in
      let rng = Ppst_rng.Secure_rng.of_seed_string seed in
      let n = pk.Paillier.n and n2 = pk.Paillier.n_squared in
      let m = residue rng n in
      List.for_all
        (fun v ->
          let c = Paillier.ciphertext_of_bigint pk v in
          let plain = Paillier.decrypt_crt sk c in
          Bigint.equal plain (Oracle.decrypt_crt o v) && Bigint.equal plain (Paillier.decrypt sk c))
        [
          Paillier.ciphertext_to_bigint (Paillier.encrypt pk rng m);
          unit_residue rng n n2;
          Bigint.one;
          Bigint.succ n;
          Bigint.pred n2;
        ])

let test_decrypt_rejects_non_units () =
  Array.iter
    (fun (((pk, sk), _) as key) ->
      let p = sk.Paillier.p and q = sk.Paillier.q and n = pk.Paillier.n in
      let k = Bigint.of_int 7919 in
      List.iter
        (fun (what, v) ->
          let name = Printf.sprintf "%s, %s" (key_name key) what in
          (match Paillier.decrypt_crt sk (Paillier.ciphertext_of_bigint pk v) with
           | _ -> Alcotest.fail (name ^ ": non-unit decrypted")
           | exception Paillier.Invalid_ciphertext _ -> ());
          Alcotest.(check bool) (name ^ ": validator = Euclid") (coprime v n)
            (match Paillier.validate_ciphertext sk v with
             | _ -> true
             | exception Paillier.Invalid_ciphertext _ -> false))
        [
          ("0", Bigint.zero); ("p", p); ("k*p", Bigint.mul k p); ("q", q);
          ("k*q", Bigint.mul k q); ("n", n); ("p^2", Bigint.mul p p);
        ])
    kernel_keys

let prop_unit_predicates =
  qtest "unit predicates = Euclid" ~count:150 gen_kernel_case ~print:print_kernel_case
    (fun (i, seed) ->
      let ((pk, sk), _) = kernel_keys.(i) in
      let rng = Ppst_rng.Secure_rng.of_seed_string seed in
      let n = pk.Paillier.n and n2 = pk.Paillier.n_squared in
      let v = residue rng n2 in
      List.for_all
        (fun v ->
          let euclid = coprime v n in
          Bool.equal euclid (Modular.coprime v n)
          && Bool.equal euclid
               (match Paillier.validate_ciphertext sk v with
                | _ -> true
                | exception Paillier.Invalid_ciphertext _ -> false))
        [
          v;
          Bigint.erem (Bigint.mul v sk.Paillier.p) n2;
          Bigint.erem (Bigint.mul v sk.Paillier.q) n2;
          residue rng n;
        ])

(* Encryption by either party and the encryption step alone, byte for
   byte against the oracle, with both generators left at the same next
   byte. *)
let prop_noise_and_seal =
  qtest "noises and seal = oracle" ~count:150 gen_kernel_case ~print:print_kernel_case
    (fun (i, seed) ->
      let ((pk, sk), o) = kernel_keys.(i) in
      let fresh () = Ppst_rng.Secure_rng.of_seed_string seed in
      let n = pk.Paillier.n and n2 = pk.Paillier.n_squared in
      let m = residue (fresh ()) n in
      let alike encrypt noise =
        let r1 = fresh () and r2 = fresh () in
        let c = Paillier.ciphertext_to_bigint (encrypt r1 m) in
        Bigint.equal c (Oracle.encrypt o ~noise r2 m)
        && Ppst_rng.Secure_rng.byte r1 = Ppst_rng.Secure_rng.byte r2
      in
      let v = unit_residue (fresh ()) n n2 and k = residue (fresh ()) n2 in
      alike (Paillier.encrypt pk) Oracle.rn_of_unit
      && alike (Paillier.encrypt_sk sk) Oracle.rn_of_unit_sk
      && Bigint.equal
           (Paillier.ciphertext_to_bigint
              (Paillier.encrypt_with_rn pk ~rn:(Paillier.rn_of_bigint pk v) m))
           (Oracle.seal o v m)
      && Bigint.equal
           (Paillier.ciphertext_to_bigint
              (Paillier.add_plain pk (Paillier.ciphertext_of_bigint pk v) k))
           (Oracle.seal o v (Bigint.erem k n)))

let test_kernel_widths_checked () =
  let ((pk, sk), _) = kernel_keys.(0) in
  let wide = Bigint.shift_left Bigint.one (64 * ((Bigint.num_bits pk.Paillier.n_squared + 63) / 64)) in
  List.iter
    (fun (name, f) ->
      match f (Bigint.magnitude wide) with
      | () -> Alcotest.fail (name ^ ": a value wider than n^2 was read")
      | exception Invalid_argument _ -> ())
    [
      ("crt_decrypt", fun v -> ignore (Montgomery.crt_decrypt sk.Paillier.crt v));
      ("crt_is_unit", fun v -> ignore (Montgomery.crt_is_unit sk.Paillier.crt v));
      ("crt_noise", fun v -> ignore (Montgomery.crt_noise sk.Paillier.crt v));
    ]

let () =
  Alcotest.run "paillier"
    [
      ( "keygen",
        [
          Alcotest.test_case "modulus sizes" `Slow test_keygen_sizes;
          Alcotest.test_case "too-small rejected" `Quick test_keygen_too_small;
          Alcotest.test_case "of_primes validation" `Quick test_of_primes_validation;
          Alcotest.test_case "public_of_modulus" `Quick test_public_of_modulus;
        ] );
      ( "encryption",
        [
          Alcotest.test_case "basic round-trips" `Quick test_roundtrip_basic;
          Alcotest.test_case "extreme plaintexts" `Quick test_roundtrip_extremes;
          Alcotest.test_case "range checking" `Quick test_plaintext_range_checked;
          Alcotest.test_case "probabilistic" `Quick test_probabilistic_encryption;
          Alcotest.test_case "larger keys" `Slow test_larger_key_roundtrip;
          Alcotest.test_case "randomness pool" `Quick test_randomness_pool;
          Alcotest.test_case "pool key mismatch" `Quick test_pool_key_mismatch;
          Alcotest.test_case "scalar_mul special cases" `Quick
            test_scalar_mul_special_cases;
          prop_roundtrip;
          prop_crt_equals_standard;
        ] );
      ( "homomorphisms",
        [
          Alcotest.test_case "negation" `Quick test_neg;
          Alcotest.test_case "mixed chain" `Quick test_homomorphic_chain;
          prop_additive;
          prop_add_plain;
          prop_add_plain_negative;
          prop_scalar_mul;
          prop_sub;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "encrypt_sk = encrypt" `Quick test_encrypt_sk_identical;
          Alcotest.test_case "encrypt_batch_sk = encrypt loop" `Quick
            test_encrypt_batch_sk_identical;
          Alcotest.test_case "invert_ciphertext" `Quick test_invert_ciphertext;
          Alcotest.test_case "pool FIFO transcript identity" `Quick
            test_pool_fifo_transcript_identity;
          Alcotest.test_case "fast (subgroup) refill" `Quick test_pool_refill_fast;
          Alcotest.test_case "noise generator" `Quick test_noise_gen;
          Alcotest.test_case "pool hammer (4 domains)" `Quick test_pool_hammer;
        ] );
      (* Alcotest pads every suite label to the longest one and cuts test
         names at 80 columns; this 15-character label, the longest, keeps
         the long names below cut where earlier reports cut them. *)
      ( "noise producers",
        [ Alcotest.test_case "three paths agree" `Quick test_noise_paths_agree ] );
      ( "packing",
        [
          Alcotest.test_case "plain round-trip" `Quick test_pack_plain_roundtrip;
          Alcotest.test_case "bounds checked" `Quick test_pack_bounds_checked;
          Alcotest.test_case "homomorphic pack" `Quick test_pack_ciphertexts;
        ] );
      ( "keys and wire",
        [
          Alcotest.test_case "key mismatch detected" `Quick test_key_mismatch;
          Alcotest.test_case "ciphertext serialization" `Quick test_ciphertext_serialization;
          Alcotest.test_case "private key round-trip" `Quick test_key_serialization;
          Alcotest.test_case "key parse failures" `Quick test_key_parse_failures;
          Alcotest.test_case "validator = gcd unit test" `Quick test_validate_fixed;
          prop_validate_is_gcd;
        ] );
      ( "kernel",
        [
          prop_decrypt_crt_kernel;
          Alcotest.test_case "non-units rejected" `Quick test_decrypt_rejects_non_units;
          prop_unit_predicates;
          prop_noise_and_seal;
          Alcotest.test_case "operand widths checked" `Quick test_kernel_widths_checked;
        ] );
    ]
