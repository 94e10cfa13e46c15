(* Tests for the secure protocols themselves: parameter planning, masked
   min/max rounds, full secure DTW/DFD against the plaintext reference,
   path hiding, cost accounting, the communication closed form, and
   misuse/failure injection. *)

open Ppst.Import

let eq_bi = Alcotest.testable Bigint.pp Bigint.equal

let qtest name ?(count = 25) gen ~print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let print_series s = Format.asprintf "%a" Series.pp s

(* --- params -------------------------------------------------------------- *)

let modulus_64 = Bigint.of_string "13497220662202513373" (* a real 64-bit n *)

let plan ?(params = Ppst.Params.default) ?(max_value = 100) ?(dimension = 1)
    ?(m = 10) ?(n = 10) ?(distance = `Dtw) ?(modulus = modulus_64) () =
  Ppst.Params.plan params ~max_value ~dimension ~client_length:m ~server_length:n
    ~modulus ~distance

let test_params_defaults () =
  let p = Ppst.Params.default in
  Alcotest.(check int) "key bits" 64 p.Ppst.Params.key_bits;
  Alcotest.(check int) "k" 10 p.Ppst.Params.k;
  Alcotest.(check int) "alpha of 10" 3 (Ppst.Params.alpha p)

let test_params_plan_basic () =
  let s = plan () in
  (* 19 elements max path, cost <= 100^2, bound = 19*10^4 + 1 *)
  Alcotest.check eq_bi "value bound" (Bigint.of_int 190_001) s.Ppst.Params.value_bound;
  Alcotest.(check int) "gamma = beta + slack" (s.Ppst.Params.beta + 2) s.Ppst.Params.gamma;
  Alcotest.(check bool) "offsets positive" true
    (Bigint.compare s.Ppst.Params.offset_lo Bigint.zero > 0)

let test_params_dfd_bound_smaller () =
  let dtw = plan ~distance:`Dtw () and dfd = plan ~distance:`Dfd () in
  Alcotest.(check bool) "dfd bound < dtw bound" true
    (Bigint.compare dfd.Ppst.Params.value_bound dtw.Ppst.Params.value_bound < 0);
  Alcotest.check eq_bi "dfd bound = max cost + 1" (Bigint.of_int 10_001)
    dfd.Ppst.Params.value_bound

let test_params_k_too_small () =
  (match plan ~params:(Ppst.Params.make ~k:3 ()) () with
   | _ -> Alcotest.fail "k=3 accepted"
   | exception Ppst.Params.Insecure _ -> ())

let test_params_slack_constraint () =
  (* slack must satisfy 0 < slack < alpha; k=10 -> alpha=3 -> slack in {1,2} *)
  (match plan ~params:(Ppst.Params.make ~gamma_slack:3 ()) () with
   | _ -> Alcotest.fail "slack = alpha accepted"
   | exception Ppst.Params.Insecure _ -> ());
  (match plan ~params:(Ppst.Params.make ~gamma_slack:0 ()) () with
   | _ -> Alcotest.fail "slack 0 accepted"
   | exception Ppst.Params.Insecure _ -> ());
  ignore (plan ~params:(Ppst.Params.make ~gamma_slack:1 ()) ())

let test_params_wraparound_guard () =
  (* values so large that masked candidates would exceed the modulus *)
  (match plan ~max_value:1_000_000 ~dimension:1000 ~m:2000 ~n:2000 () with
   | _ -> Alcotest.fail "wrap-around accepted"
   | exception Ppst.Params.Insecure _ -> ())

let test_params_offset_range_fits_k () =
  (* an all-zero DFD has value bound 2: the offset range must still hold
     k distinct offsets, or drawing them never terminates *)
  List.iter
    (fun k ->
      let gamma_slack = if k <= 4 then 1 else 2 in
      let s =
        plan ~params:(Ppst.Params.make ~k ~gamma_slack ()) ~max_value:1 ~m:1 ~n:1
          ~distance:`Dfd ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "k = %d: 2^gamma = %d >= k" k (1 lsl s.Ppst.Params.gamma))
        true
        (1 lsl s.Ppst.Params.gamma >= k);
      Alcotest.(check int) (Printf.sprintf "k = %d: slack kept" k) gamma_slack
        (s.Ppst.Params.gamma - s.Ppst.Params.beta))
    [ 4; 10; 16; 50 ]

let test_params_bad_args () =
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "bad argument accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> ignore (plan ~max_value:0 ()));
      (fun () -> ignore (plan ~dimension:0 ()));
      (fun () -> ignore (plan ~m:0 ()));
    ]

(* Bounds whose d * V^2 wraps a native int: 2 * (2^31)^2 = 2^63 wraps to
   0 (a plan for value bound 1), 3e9^2 wraps negative.  The exact DTW
   bounds on a 10x10 pair, (m + n - 1) d V^2 + 1, are 68 bits long. *)
let wrapping_bounds =
  [ (1 lsl 31, 2, "175244068700240740353"); (3_000_000_000, 1, "171000000000000000001") ]

let test_params_bound_overflow_typed () =
  List.iter
    (fun (max_value, dimension, _) ->
      match plan ~max_value ~dimension () with
      | s ->
        Alcotest.failf "V = %d, d = %d planned on a 64-bit key: %s" max_value dimension
          (Bigint.to_string s.Ppst.Params.value_bound)
      | exception Ppst.Params.Insecure _ -> ())
    wrapping_bounds

let test_params_bound_exact_wide_key () =
  let modulus = Bigint.pred (Bigint.shift_left Bigint.one 256) in
  List.iter
    (fun (max_value, dimension, exact) ->
      Alcotest.check eq_bi
        (Printf.sprintf "V = %d, d = %d" max_value dimension)
        (Bigint.of_string exact)
        (plan ~max_value ~dimension ~modulus ()).Ppst.Params.value_bound)
    wrapping_bounds

(* The Section 5.3 guards as properties, over generated keys (a modulus
   of exactly [key_bits] bits), random-set sizes, valid gamma - beta
   slacks, value bounds, dimensions, lengths and distances.  An accepted
   plan must mask without wrap-around — also when packed — and a refused
   one must really have needed it. *)
type guard_case = {
  key_bits : int;
  modulus : Bigint.t;
  params : Ppst.Params.t;
  max_value : int;
  d : int;
  m : int;
  n : int;
  distance : [ `Dtw | `Dfd | `Erp | `Euclidean ];
}

let gen_guard_case =
  let open QCheck2.Gen in
  let* key_bits = int_range 16 256 in
  let* seed = int in
  let* k = int_range 4 64 in
  let* gamma_slack = int_range 1 (Ppst.Params.alpha (Ppst.Params.make ~k ()) - 1) in
  let* value_bits = int_range 0 20 in
  let* max_value = int_range 1 (1 lsl value_bits) in
  let* d = int_range 1 8 in
  let* m = int_range 1 1000 in
  let* n = int_range 1 1000 in
  let+ distance = oneofl [ `Dtw; `Dfd; `Erp; `Euclidean ] in
  let top = Bigint.shift_left Bigint.one (key_bits - 1) in
  let v = Bigint.add top (Secure_rng.below (Secure_rng.of_seed_string (string_of_int seed)) top) in
  let modulus = if Bigint.is_even v then Bigint.succ v else v in
  let params = Ppst.Params.make ~key_bits ~k ~gamma_slack () in
  { key_bits; modulus; params; max_value; d; m; n; distance }

let print_guard_case c =
  Printf.sprintf "modulus %s (%d bits), k = %d, slack %d, V = %d, d = %d, %dx%d, %s"
    (Bigint.to_string c.modulus) c.key_bits c.params.Ppst.Params.k
    c.params.Ppst.Params.gamma_slack c.max_value c.d c.m c.n
    (match c.distance with
     | `Dtw -> "dtw" | `Dfd -> "dfd" | `Erp -> "erp" | `Euclidean -> "euclidean")

let prop_params_guards =
  qtest "accepted plans never wrap; refused ones would" ~count:1000 gen_guard_case
    ~print:print_guard_case (fun c ->
      let plan modulus =
        Ppst.Params.plan c.params ~max_value:c.max_value ~dimension:c.d ~client_length:c.m
          ~server_length:c.n ~modulus ~distance:c.distance
      in
      match plan c.modulus with
      | s ->
        let open Ppst.Params in
        (* the largest value a DP entry can hold, from the paper's bounds *)
        let largest_value =
          c.d * c.max_value * c.max_value
          * (match c.distance with
             | `Dtw -> c.m + c.n - 1
             | `Dfd -> 1
             | `Erp -> c.m + c.n
             | `Euclidean -> min c.m c.n)
        in
        let largest = Bigint.add (Bigint.pred s.value_bound) s.offset_hi in
        let offsets = Bigint.succ (Bigint.sub s.offset_hi s.offset_lo) in
        let slot_bits = Bigint.num_bits (Bigint.add s.value_bound s.offset_hi) in
        let pk = Paillier.public_of_modulus c.modulus ~bits:c.key_bits in
        let capacity = Paillier.pack_capacity pk ~slot_bits in
        Bigint.compare s.value_bound (Bigint.of_int largest_value) > 0
        && Bigint.compare largest c.modulus < 0
        && Bigint.compare offsets (Bigint.of_int c.params.k) >= 0
        && 0 < s.gamma - s.beta
        && s.gamma - s.beta < alpha c.params
        && (capacity < 1
           ||
           let packed = Paillier.pack_plain pk ~slot_bits (Array.make capacity largest) in
           Bigint.compare packed c.modulus < 0
           && Array.for_all (Bigint.equal largest)
                (Paillier.unpack_plain ~slot_bits ~count:capacity packed))
      | exception Ppst.Params.Insecure _ ->
        (* the same plan under a modulus far too large to matter *)
        let s = plan (Bigint.shift_left Bigint.one 4096) in
        Bigint.compare (Bigint.add s.Ppst.Params.value_bound s.Ppst.Params.offset_hi) c.modulus
        >= 0)

(* --- masking -------------------------------------------------------------- *)

let with_session f =
  let rng = Secure_rng.of_seed_string "masking-tests" in
  let pk, sk = Paillier.keygen ~bits:64 rng in
  let session =
    Ppst.Params.plan Ppst.Params.default ~max_value:100 ~dimension:1
      ~client_length:10 ~server_length:10 ~modulus:pk.Paillier.n ~distance:`Dtw
  in
  f ~rng ~pk ~sk ~session

let test_offsets_sorted_distinct_in_range () =
  with_session (fun ~rng ~pk:_ ~sk:_ ~session ->
      let offsets = Ppst.Masking.draw_offsets ~rng ~session ~count:20 in
      Alcotest.(check int) "count" 20 (Array.length offsets);
      Array.iteri
        (fun i r ->
          Alcotest.(check bool) "in range" true
            (Bigint.compare session.Ppst.Params.offset_lo r <= 0
             && Bigint.compare r session.Ppst.Params.offset_hi <= 0);
          if i > 0 then
            Alcotest.(check bool) "strictly ascending" true
              (Bigint.compare offsets.(i - 1) r < 0))
        offsets)

(* The offset draw as written over Bigint, the reference for the
   native-int draw: one [Secure_rng.in_range] per offset, a redraw on
   collision, then a sort. *)
let reference_offsets ~rng ~session ~count =
  let lo = session.Ppst.Params.offset_lo and hi = session.Ppst.Params.offset_hi in
  let rec fill acc n =
    if n = 0 then acc
    else begin
      let r = Secure_rng.in_range rng ~lo ~hi in
      if List.exists (Bigint.equal r) acc then fill acc n else fill (r :: acc) (n - 1)
    end
  in
  let offsets = Array.of_list (fill [] count) in
  Array.sort Bigint.compare offsets;
  offsets

(* A plan equals one built from the reference offsets and the same
   decoy-source and shuffle draws, and leaves the stream where that
   reference leaves it.  Value bounds run up to 2^62 - 1, so some
   sessions have offset_hi above 2^61 and take the Bigint path; the
   fixed sessions sit on both sides of the 2^61 boundary. *)
let plan_matches_reference ~seed ~session =
  let k = session.Ppst.Params.params.Ppst.Params.k and n_inputs = 3 in
  let mine = Secure_rng.of_seed_string seed and theirs = Secure_rng.of_seed_string seed in
  let p = Ppst.Masking.plan ~rng:mine ~session ~extreme:`Min ~n_inputs in
  let offsets = reference_offsets ~rng:theirs ~session ~count:k in
  let sources = Array.init (k - 1) (fun _ -> Secure_rng.int theirs n_inputs) in
  let perm = Array.init (n_inputs + k - 1) Fun.id in
  Secure_rng.shuffle_in_place theirs perm;
  Bigint.equal p.Ppst.Masking.pivot offsets.(0)
  && Array.for_all2 Bigint.equal p.Ppst.Masking.decoy_offsets (Array.sub offsets 1 (k - 1))
  && p.Ppst.Masking.decoy_sources = sources
  && p.Ppst.Masking.perm = perm
  && Secure_rng.bytes mine 16 = Secure_rng.bytes theirs 16

let wide_modulus = Bigint.succ (Bigint.shift_left Bigint.one 128)

let session_of ~k ~slack value_bound =
  Ppst.Params.plan_bound
    (Ppst.Params.make ~k ~gamma_slack:slack ())
    ~value_bound ~modulus:wide_modulus

let prop_native_plans_equal_reference =
  let gen =
    QCheck2.Gen.(
      let* k = int_range 4 40 in
      let alpha = Ppst.Params.alpha (Ppst.Params.make ~k ()) in
      let* slack = int_range 1 (alpha - 1) in
      let* bits = int_range 1 62 in
      let* low = int_bound ((1 lsl (bits - 1)) - 1) in
      let* seed = string_size ~gen:printable (int_range 0 12) in
      return (k, slack, (1 lsl (bits - 1)) + low, seed))
  in
  qtest "native plans = Bigint reference" ~count:300 gen
    ~print:(fun (k, slack, vb, seed) ->
      Printf.sprintf "k=%d slack=%d value_bound=%d seed=%S" k slack vb seed)
    (fun (k, slack, vb, seed) ->
      plan_matches_reference ~seed:("plan/" ^ seed)
        ~session:(session_of ~k ~slack (Bigint.of_int vb)))

let test_plans_around_the_native_bound () =
  List.iter
    (fun gamma ->
      (* beta = gamma - 2 at the default slack *)
      let session =
        session_of ~k:10 ~slack:2 (Bigint.shift_left Bigint.one (gamma - 1))
      in
      Alcotest.(check int) "gamma" gamma session.Ppst.Params.gamma;
      Alcotest.(check bool)
        (Printf.sprintf "offset_hi = 2^%d: plan = reference" (gamma + 1))
        true
        (plan_matches_reference ~seed:(Printf.sprintf "boundary-%d" gamma) ~session))
    [ 59; 60; 61; 90 ]

let test_prepare_min_counts_and_correctness () =
  with_session (fun ~rng ~pk ~sk ~session ->
      let enc v = Paillier.encrypt pk rng (Bigint.of_int v) in
      let inputs = [| enc 50; enc 30; enc 90 |] in
      let prepared = Ppst.Masking.prepare_min ~pk ~rng ~session inputs in
      let k = session.Ppst.Params.params.Ppst.Params.k in
      Alcotest.(check int) "k + 2 candidates" (k + 2)
        (Array.length prepared.Ppst.Masking.candidates);
      (* server side: decrypt all, the minimum plaintext must be 30 + r_min *)
      let plains =
        Array.map (Paillier.decrypt_crt sk) prepared.Ppst.Masking.candidates
      in
      let min_plain = Array.fold_left Bigint.min plains.(0) plains in
      Alcotest.check eq_bi "min = 30 + r_min"
        (Bigint.add (Bigint.of_int 30) prepared.Ppst.Masking.unmask)
        min_plain;
      (* unmasking a fresh encryption of the min recovers Enc(30) *)
      let reply = Paillier.encrypt pk rng min_plain in
      let unmasked = Ppst.Masking.unmask_min ~pk prepared reply in
      Alcotest.check eq_bi "unmask" (Bigint.of_int 30) (Paillier.decrypt_crt sk unmasked))

let test_prepare_max_counts_and_correctness () =
  with_session (fun ~rng ~pk ~sk ~session ->
      let enc v = Paillier.encrypt pk rng (Bigint.of_int v) in
      let inputs = [| enc 50; enc 90 |] in
      let prepared = Ppst.Masking.prepare_max ~pk ~rng ~session inputs in
      let k = session.Ppst.Params.params.Ppst.Params.k in
      Alcotest.(check int) "k + 1 candidates" (k + 1)
        (Array.length prepared.Ppst.Masking.candidates);
      let plains =
        Array.map (Paillier.decrypt_crt sk) prepared.Ppst.Masking.candidates
      in
      let max_plain = Array.fold_left Bigint.max plains.(0) plains in
      Alcotest.check eq_bi "max = 90 + r_max"
        (Bigint.add (Bigint.of_int 90) prepared.Ppst.Masking.unmask)
        max_plain;
      let reply = Paillier.encrypt pk rng max_plain in
      let unmasked = Ppst.Masking.unmask_max ~pk prepared reply in
      Alcotest.check eq_bi "unmask" (Bigint.of_int 90) (Paillier.decrypt_crt sk unmasked))

let test_prepare_rejects_empty () =
  with_session (fun ~rng ~pk ~sk:_ ~session ->
      match Ppst.Masking.prepare_min ~pk ~rng ~session [||] with
      | _ -> Alcotest.fail "empty inputs accepted"
      | exception Invalid_argument _ -> ())

let test_candidates_rerandomized () =
  (* no outgoing candidate may equal (as a ciphertext) any input — the
     linkability protection *)
  with_session (fun ~rng ~pk ~sk:_ ~session ->
      let enc v = Paillier.encrypt pk rng (Bigint.of_int v) in
      let inputs = [| enc 1; enc 2; enc 3 |] in
      let prepared = Ppst.Masking.prepare_min ~pk ~rng ~session inputs in
      Array.iter
        (fun c ->
          Array.iter
            (fun input ->
              Alcotest.(check bool) "distinct from inputs" false
                (Paillier.equal_ciphertext c input))
            inputs)
        prepared.Ppst.Masking.candidates)

let test_masked_min_many_rounds () =
  (* the masked minimum is exact over many random triples *)
  with_session (fun ~rng ~pk ~sk ~session ->
      for _ = 1 to 30 do
        let vals = Array.init 3 (fun _ -> Secure_rng.int rng 100_000) in
        let inputs = Array.map (fun v -> Paillier.encrypt pk rng (Bigint.of_int v)) vals in
        let prepared = Ppst.Masking.prepare_min ~pk ~rng ~session inputs in
        let plains = Array.map (Paillier.decrypt_crt sk) prepared.Ppst.Masking.candidates in
        let min_plain = Array.fold_left Bigint.min plains.(0) plains in
        let recovered =
          Paillier.decrypt_crt sk
            (Ppst.Masking.unmask_min ~pk prepared (Paillier.encrypt pk rng min_plain))
        in
        let expected = Array.fold_left min vals.(0) vals in
        Alcotest.check eq_bi "min" (Bigint.of_int expected) recovered
      done)

(* --- secure DTW / DFD end-to-end ------------------------------------------ *)

let run_dtw ?params ?max_value ~seed x y =
  Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ?params ?max_value ~seed ~x ~y ()

let run_dfd ?params ?max_value ~seed x y =
  Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dfd) ?params ?max_value ~seed ~x ~y ()

let test_dtw_paper_example () =
  let x = Series.of_list [ 3; 4; 5; 4; 6; 7 ] and y = Series.of_list [ 2; 4; 6; 5; 7 ] in
  let r = run_dtw ~seed:"paper-dtw" x y in
  Alcotest.(check int) "matches plaintext" (Distance.dtw_sq x y)
    (Ppst.Protocol.distance_int r)

let test_dfd_paper_example () =
  let x = Series.of_list [ 3; 4; 5; 4; 6; 7 ] and y = Series.of_list [ 2; 4; 6; 5; 7 ] in
  let r = run_dfd ~seed:"paper-dfd" x y in
  Alcotest.(check int) "matches plaintext" (Distance.dfd_sq x y)
    (Ppst.Protocol.distance_int r)

let test_single_element_series () =
  let x = Series.of_list [ 5 ] and y = Series.of_list [ 9 ] in
  Alcotest.(check int) "dtw singleton" 16
    (Ppst.Protocol.distance_int (run_dtw ~seed:"single" x y));
  Alcotest.(check int) "dfd singleton" 16
    (Ppst.Protocol.distance_int (run_dfd ~seed:"single2" x y))

let test_identical_series () =
  let x = Series.of_list [ 7; 7; 7; 7 ] in
  Alcotest.(check int) "zero distance" 0
    (Ppst.Protocol.distance_int (run_dtw ~seed:"ident" x x))

let test_unequal_lengths () =
  let x = Series.of_list [ 1; 5; 9; 5; 1; 5; 9 ] and y = Series.of_list [ 1; 9 ] in
  Alcotest.(check int) "dtw m<>n" (Distance.dtw_sq x y)
    (Ppst.Protocol.distance_int (run_dtw ~seed:"uneq" x y));
  Alcotest.(check int) "dfd m<>n" (Distance.dfd_sq x y)
    (Ppst.Protocol.distance_int (run_dfd ~seed:"uneq2" x y))

let gen_series_pair =
  let open QCheck2.Gen in
  let* d = int_range 1 3 in
  let mk =
    let* len = int_range 1 6 in
    let* data = list_size (return len) (list_size (return d) (int_range 0 40)) in
    return (Series.create (Array.of_list (List.map Array.of_list data)))
  in
  pair mk mk

let prop_dtw_equals_plaintext =
  qtest "secure DTW = plaintext DTW" ~count:15 gen_series_pair
    ~print:(fun (a, b) -> print_series a ^ " / " ^ print_series b)
    (fun (x, y) ->
      let r = run_dtw ~seed:"prop-dtw" x y in
      Ppst.Protocol.distance_int r = Distance.dtw_sq x y)

let prop_dfd_equals_plaintext =
  qtest "secure DFD = plaintext DFD" ~count:10 gen_series_pair
    ~print:(fun (a, b) -> print_series a ^ " / " ^ print_series b)
    (fun (x, y) ->
      let r = run_dfd ~seed:"prop-dfd" x y in
      Ppst.Protocol.distance_int r = Distance.dfd_sq x y)

let test_multidimensional_protocol () =
  let x = Series.create [| [| 1; 2; 3 |]; [| 4; 5; 6 |]; [| 7; 8; 9 |] |] in
  let y = Series.create [| [| 9; 8; 7 |]; [| 6; 5; 4 |] |] in
  Alcotest.(check int) "3-d dtw" (Distance.dtw_sq x y)
    (Ppst.Protocol.distance_int (run_dtw ~seed:"3d" x y));
  Alcotest.(check int) "3-d dfd" (Distance.dfd_sq x y)
    (Ppst.Protocol.distance_int (run_dfd ~seed:"3d2" x y))

let test_various_k () =
  let x = Series.of_list [ 10; 20; 30; 25 ] and y = Series.of_list [ 12; 22; 28 ] in
  let expected = Distance.dtw_sq x y in
  List.iter
    (fun k ->
      (* k = 4 gives alpha = 2, so the slack must drop to 1 *)
      let gamma_slack = if k <= 4 then 1 else 2 in
      let params = Ppst.Params.make ~k ~gamma_slack () in
      let r = run_dtw ~params ~seed:(Printf.sprintf "k%d" k) x y in
      Alcotest.(check int) (Printf.sprintf "k = %d" k) expected
        (Ppst.Protocol.distance_int r))
    [ 4; 8; 10; 16; 50 ]

let test_larger_keys () =
  let x = Series.of_list [ 3; 1; 4; 1; 5 ] and y = Series.of_list [ 2; 7; 1; 8 ] in
  List.iter
    (fun key_bits ->
      let params = Ppst.Params.make ~key_bits () in
      let r = run_dtw ~params ~seed:(Printf.sprintf "bits%d" key_bits) x y in
      Alcotest.(check int) (Printf.sprintf "%d-bit key" key_bits)
        (Distance.dtw_sq x y) (Ppst.Protocol.distance_int r))
    [ 48; 96; 128 ]

let test_zero_values_allowed () =
  let x = Series.of_list [ 0; 0; 0 ] and y = Series.of_list [ 0; 1; 0 ] in
  Alcotest.(check int) "zeros" (Distance.dtw_sq x y)
    (Ppst.Protocol.distance_int (run_dtw ~seed:"zeros" x y))

let test_determinism_across_seeds () =
  (* different randomness, same result *)
  let x = Series.of_list [ 5; 15; 25 ] and y = Series.of_list [ 10; 20 ] in
  let r1 = run_dtw ~seed:"seed-a" x y and r2 = run_dtw ~seed:"seed-b" x y in
  Alcotest.check eq_bi "independent of randomness" r1.Ppst.Protocol.distance
    r2.Ppst.Protocol.distance

(* --- accounting ------------------------------------------------------------ *)

let test_communication_formula_dtw () =
  List.iter
    (fun (m, n, d, k) ->
      let params = Ppst.Params.make ~k () in
      let x =
        Series.create (Array.init m (fun i -> Array.init d (fun l -> ((i + l) mod 20) + 1)))
      in
      let y =
        Series.create (Array.init n (fun j -> Array.init d (fun l -> ((j * l) mod 20) + 1)))
      in
      let r = run_dtw ~params ~seed:"comm" x y in
      let closed_form = (n * (d + 1)) + ((m - 1) * (n - 1) * (k + 3)) + 2 in
      Alcotest.(check int)
        (Printf.sprintf "plan m=%d n=%d d=%d k=%d" m n d k)
        closed_form
        (Ppst.Protocol.expected_values_transferred ~params ~m ~n ~d
           (Ppst.Protocol.spec `Dtw));
      Alcotest.(check int)
        (Printf.sprintf "values m=%d n=%d d=%d k=%d" m n d k)
        closed_form
        (Stats.total_values r.Ppst.Protocol.stats))
    [ (5, 5, 1, 10); (4, 7, 2, 8); (1, 3, 1, 10); (6, 2, 3, 16) ]

let test_communication_formula_dfd () =
  let params = Ppst.Params.make ~k:10 () in
  let m = 5 and n = 4 and d = 2 in
  let x = Series.create (Array.init m (fun i -> [| i + 1; 2 * (i + 1) |])) in
  let y = Series.create (Array.init n (fun j -> [| 3 * (j + 1); j + 1 |])) in
  let r = run_dfd ~params ~seed:"comm-dfd" x y in
  let k = 10 in
  let closed_form =
    (n * (d + 1))
    + ((m - 1 + (n - 1)) * (k + 2))
    + ((m - 1) * (n - 1) * (k + 3 + k + 2))
    + 2
  in
  Alcotest.(check int) "dfd plan"
    closed_form
    (Ppst.Protocol.expected_values_transferred ~params ~m ~n ~d
       (Ppst.Protocol.spec `Dfd));
  Alcotest.(check int) "dfd closed form" closed_form
    (Stats.total_values r.Ppst.Protocol.stats)

let test_paper_per_entry_formula () =
  (* paper Section 5.2: the dominant per-entry cost is d + k + 4 values;
     check the live count divided by cells approaches it as m, n grow *)
  let params = Ppst.Params.make ~k:10 () in
  let m = 12 and n = 12 and d = 1 in
  let x = Series.create (Array.init m (fun i -> [| (i mod 9) + 1 |])) in
  let y = Series.create (Array.init n (fun j -> [| (j mod 7) + 1 |])) in
  let r = run_dtw ~params ~seed:"per-entry" x y in
  let total = Stats.total_values r.Ppst.Protocol.stats in
  (* the paper charges (d+1) phase-1 values to every entry; we amortize
     phase 1 per server element, so mn(d+k+4) is an upper bound and the
     inner-cell phase-2 term (k+3 per cell) a lower bound *)
  Alcotest.(check bool)
    (Printf.sprintf "total %d <= mn(d+k+4) = %d" total (m * n * (d + 10 + 4)))
    true
    (total <= m * n * (d + 10 + 4));
  Alcotest.(check bool)
    (Printf.sprintf "total %d >= (m-1)(n-1)(k+3) = %d" total
       ((m - 1) * (n - 1) * (10 + 3)))
    true
    (total >= (m - 1) * (n - 1) * (10 + 3))

let test_cost_counters () =
  let x = Series.of_list [ 1; 2; 3; 4 ] and y = Series.of_list [ 4; 3; 2 ] in
  let params = Ppst.Params.default in
  let r = run_dtw ~params ~seed:"counters" x y in
  let k = params.Ppst.Params.k in
  let m = 4 and n = 3 and d = 1 in
  let inner = (m - 1) * (n - 1) in
  let client = Ppst.Cost.client_ops r.Ppst.Protocol.cost in
  let server = Ppst.Cost.server_ops r.Ppst.Protocol.cost in
  (* client: one Enc(Σx²) per row + (k+2) offset encryptions per min round *)
  Alcotest.(check int) "client encryptions" (m + (inner * (k + 2)))
    client.Ppst.Cost.encryptions;
  (* server: n(d+1) phase-1 + 1 re-encryption per round *)
  Alcotest.(check int) "server encryptions" ((n * (d + 1)) + inner)
    server.Ppst.Cost.encryptions;
  (* server decrypts k+2 per round + the final reveal *)
  Alcotest.(check int) "server decryptions" ((inner * (k + 2)) + 1)
    server.Ppst.Cost.decryptions;
  Alcotest.(check int) "client never decrypts" 0 client.Ppst.Cost.decryptions

let test_offline_pool_has_no_misses () =
  (* regression: encrypt_pooled silently fell back to an online
     exponentiation when the pool ran dry, so "offline" runs could pay
     online cost without any accounting trace.  The drivers pre-size the
     pool exactly, so a default (offline) run must never miss... *)
  let x = Series.of_list [ 1; 2; 3; 4 ] and y = Series.of_list [ 4; 3; 2 ] in
  let offline = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"misses-off" ~x ~y () in
  Alcotest.(check int) "offline run: zero pool misses" 0
    (Ppst.Cost.pool_misses offline.Ppst.Protocol.cost);
  (* ...while with the pool disabled every client encryption is a miss
     (i.e. an online exponentiation), and the counter says exactly that *)
  let online = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~offline:false ~seed:"misses-on" ~x ~y () in
  let client_encs =
    (Ppst.Cost.client_ops online.Ppst.Protocol.cost).Ppst.Cost.encryptions
  in
  Alcotest.(check int) "online run: every encryption misses" client_encs
    (Ppst.Cost.pool_misses online.Ppst.Protocol.cost);
  Alcotest.(check bool) "counter is live" true (client_encs > 0)

let test_dfd_costs_more_than_dtw () =
  let x = Series.of_list [ 1; 9; 2; 8; 3; 7 ] and y = Series.of_list [ 9; 1; 8; 2; 7 ] in
  let dtw = run_dtw ~seed:"cmp1" x y and dfd = run_dfd ~seed:"cmp2" x y in
  Alcotest.(check bool) "dfd transfers more" true
    (Stats.total_values dfd.Ppst.Protocol.stats
     > Stats.total_values dtw.Ppst.Protocol.stats);
  let d_dec = (Ppst.Cost.server_ops dfd.Ppst.Protocol.cost).Ppst.Cost.decryptions in
  let t_dec = (Ppst.Cost.server_ops dtw.Ppst.Protocol.cost).Ppst.Cost.decryptions in
  Alcotest.(check bool) "dfd decrypts more" true (d_dec > t_dec)

(* --- hot-path equivalences ---------------------------------------------------- *)

(* Run secure DTW over an instrumented loopback channel that records the
   exact bytes of every request and reply frame. *)
let run_dtw_with_transcript ~offline =
  let rng = Secure_rng.of_seed_string "transcript/client" in
  let server_rng = Secure_rng.of_seed_string "transcript/server" in
  let x = Series.of_list [ 3; 4; 5; 4; 6; 7 ] and y = Series.of_list [ 2; 4; 6; 5; 7 ] in
  let server = Ppst.Server.create ~rng:server_rng ~series:y ~max_value:7 () in
  let buf = Buffer.create 4096 in
  let handler req =
    Buffer.add_string buf (Message.encode (Message.Request req));
    let reply = Ppst.Server.handle server req in
    Buffer.add_string buf (Message.encode (Message.Reply reply));
    reply
  in
  let client =
    Ppst.Client.connect ~offline ~rng ~series:x ~max_value:7 ~distance:`Dtw
      (Channel.local handler)
  in
  let dist = Ppst.Secure_dp.(run dtw Full Row_major) client in
  Ppst.Client.finish client;
  (dist, Buffer.contents buf)

let test_pooled_unpooled_transcripts_identical () =
  (* the offline/online split must be invisible on the wire: a pooled run
     consumes its noise rng in production (FIFO) order, so under the same
     seed the unpooled run emits the very same bytes *)
  let dist_off, bytes_off = run_dtw_with_transcript ~offline:true in
  let dist_on, bytes_on = run_dtw_with_transcript ~offline:false in
  Alcotest.check eq_bi "same distance" dist_off dist_on;
  Alcotest.(check int) "same transcript length" (String.length bytes_off)
    (String.length bytes_on);
  Alcotest.(check string) "bit-identical transcripts"
    (Digest.to_hex (Digest.string bytes_off))
    (Digest.to_hex (Digest.string bytes_on))

let test_packed_matches_unpacked () =
  (* plaintext packing is a throughput capability: same revealed
     distance, no pool misses, strictly fewer values on the wire *)
  let x = Series.of_list [ 3; 4; 5; 4; 6; 7 ] and y = Series.of_list [ 2; 4; 6; 5; 7 ] in
  let params = Ppst.Params.make ~key_bits:128 () in
  List.iter
    (fun (name, algo, strategy) ->
      let seed = "packed-" ^ name in
      let run packing =
        Ppst.Protocol.run
          ~spec:(Ppst.Protocol.spec ~strategy ~packing algo)
          ~params ~seed ~x ~y ()
      in
      let plain = run false and packed = run true in
      Alcotest.check eq_bi (name ^ ": same distance")
        plain.Ppst.Protocol.distance packed.Ppst.Protocol.distance;
      Alcotest.(check int) (name ^ ": offline run never misses") 0
        (Ppst.Cost.pool_misses packed.Ppst.Protocol.cost);
      Alcotest.(check bool)
        (Printf.sprintf "%s: packed moves fewer values (%d < %d)" name
           (Stats.total_values packed.Ppst.Protocol.stats)
           (Stats.total_values plain.Ppst.Protocol.stats))
        true
        (Stats.total_values packed.Ppst.Protocol.stats
         < Stats.total_values plain.Ppst.Protocol.stats))
    [ ("dtw", `Dtw, `Full); ("dfd", `Dfd, `Full); ("dtw-wavefront", `Dtw, `Wavefront) ]

(* One seeded 6x5 DTW session at V = 340,000,000 over a recording local
   channel: whether the client packs, the Welcome, the distance and the
   encoded (request, reply) frames from Phase1_request on. *)
let run_fallback_session ~packing =
  let x = Series.of_list [ 3; 4; 5; 4; 6; 7 ] and y = Series.of_list [ 2; 4; 6; 5; 7 ] in
  let max_value = 340_000_000 in
  let server =
    Ppst.Server.create ~rng:(Secure_rng.of_seed_string "packed-fallback/server")
      ~series:y ~max_value ()
  in
  let frames = ref [] in
  let handler req =
    let reply = Ppst.Server.handle server req in
    frames := (req, reply) :: !frames;
    reply
  in
  let client =
    Ppst.Client.connect ~packing ~rng:(Secure_rng.of_seed_string "packed-fallback/client")
      ~series:x ~max_value ~distance:`Dtw (Channel.local handler)
  in
  let packs = Ppst.Client.packing client in
  let d = Ppst.Secure_dp.(run dtw Full Row_major) client in
  Ppst.Client.finish client;
  let frames = List.rev !frames in
  let rec from_phase1 = function
    | (Message.Phase1_request, _) :: _ as l ->
      List.map
        (fun (req, reply) ->
          Message.encode (Message.Request req) ^ Message.encode (Message.Reply reply))
        l
    | _ :: rest -> from_phase1 rest
    | [] -> []
  in
  (packs, snd (List.hd frames), Bigint.to_int_exn d, from_phase1 frames)

let test_packing_fallback_small_key () =
  (* the 61-bit DTW value bound puts offset_hi at 2^63, so a masked
     candidate takes 64 bits and the 64-bit key has no slot for it: the
     granted packing falls back to unpacked rounds, on the same uniform
     noise as a run that never offered it *)
  let x = Series.of_list [ 3; 4; 5; 4; 6; 7 ] and y = Series.of_list [ 2; 4; 6; 5; 7 ] in
  let packs, welcome, d, frames = run_fallback_session ~packing:true in
  let _, _, d_plain, frames_plain = run_fallback_session ~packing:false in
  (match welcome with
   | Message.Welcome { flags; _ } ->
     Alcotest.(check bool) "packing granted" true (flags land Message.flag_packing <> 0)
   | _ -> Alcotest.fail "no Welcome");
  Alcotest.(check bool) "packing inactive" false packs;
  Alcotest.(check int) "distance" (Distance.dtw_sq x y) d;
  Alcotest.(check int) "distance without packing offered" d d_plain;
  Alcotest.(check bool) "frames recorded" true (List.length frames > 2);
  Alcotest.(check (list string))
    "frames from Phase1_request on = run without packing offered"
    (List.map (fun f -> Digest.to_hex (Digest.string f)) frames_plain)
    (List.map (fun f -> Digest.to_hex (Digest.string f)) frames)

(* --- hiding ------------------------------------------------------------------ *)

let test_matrix_stays_encrypted_and_path_hidden () =
  (* Run the engine directly to inspect the client's matrix view, under
     both schedules and a band. *)
  let x = Series.of_list [ 3; 4; 5; 4; 6; 7 ] and y = Series.of_list [ 2; 4; 6; 5; 7 ] in
  List.iter
    (fun (name, domain, schedule) ->
      let rng = Secure_rng.of_seed_string "hiding/client" in
      let server_rng = Secure_rng.of_seed_string "hiding/server" in
      let server = Ppst.Server.create ~rng:server_rng ~series:y ~max_value:7 () in
      let channel = Channel.local (Ppst.Server.handle server) in
      let client =
        Ppst.Client.connect ~rng ~series:x ~max_value:7 ~distance:`Dtw channel
      in
      let matrix, dist = Ppst.Secure_dp.(run_matrix dtw domain schedule client) in
      Ppst.Client.finish client;
      Alcotest.(check int) (name ^ ": distance") (Distance.dtw_sq x y)
        (Bigint.to_int_exn dist);
      (* every pair of matrix ciphertexts must be distinct, even where the
         plaintext matrix has equal values (e.g. m11 = m22 = 1 in Figure
         1) — otherwise the client learns the optimal path (Section 5.5) *)
      let plain = Distance.dtw_sq_matrix x y in
      let cells =
        List.concat_map
          (fun i -> List.filter_map (fun j -> Option.map (fun c -> (i, j, c)) matrix.(i).(j)) [ 0; 1; 2; 3; 4 ])
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let duplicates = ref 0 and equal_plaintexts = ref 0 in
      List.iter
        (fun (i1, j1, c1) ->
          List.iter
            (fun (i2, j2, c2) ->
              if (i1, j1) < (i2, j2) then begin
                if plain.(i1).(j1) = plain.(i2).(j2) then incr equal_plaintexts;
                if Paillier.equal_ciphertext c1 c2 then incr duplicates
              end)
            cells)
        cells;
      Alcotest.(check bool) (name ^ ": plaintext matrix has equal entries") true
        (!equal_plaintexts > 0);
      Alcotest.(check int) (name ^ ": no duplicate ciphertexts") 0 !duplicates)
    [
      ("row-major", Ppst.Secure_dp.Full, Ppst.Secure_dp.Row_major);
      ("anti-diagonal", Ppst.Secure_dp.Full, Ppst.Secure_dp.Anti_diagonal);
      ("band 2", Ppst.Secure_dp.Band 2, Ppst.Secure_dp.Row_major);
    ]

let test_server_never_sees_unmasked_values () =
  (* instrument the channel: every Min_request candidate decrypted by the
     secret key must be >= offset_lo (i.e. masked), never a raw matrix
     value *)
  let rng = Secure_rng.of_seed_string "mask-audit/client" in
  let server_rng = Secure_rng.of_seed_string "mask-audit/server" in
  let x = Series.of_list [ 3; 9; 1; 7 ] and y = Series.of_list [ 2; 8; 5 ] in
  let server = Ppst.Server.create ~rng:server_rng ~series:y ~max_value:9 () in
  let sk = Ppst.Server.private_key server in
  let violations = ref 0 in
  let audited req =
    (match req with
     | Message.Min_request candidates ->
       Array.iter
         (fun c ->
           let plain =
             Paillier.decrypt_crt sk
               (Paillier.ciphertext_of_bigint (Ppst.Server.public_key server) c)
           in
           (* every candidate = value + offset with offset > 2^gamma *)
           if Bigint.compare plain (Bigint.of_int 1024) < 0 then incr violations)
         candidates
     | _ -> ());
    Ppst.Server.handle server req
  in
  let channel = Channel.local audited in
  let client = Ppst.Client.connect ~rng ~series:x ~max_value:9 ~distance:`Dtw channel in
  let dist = Ppst.Secure_dp.(run dtw Full Row_major) client in
  Ppst.Client.finish client;
  Alcotest.(check int) "distance still right" (Distance.dtw_sq x y)
    (Bigint.to_int_exn dist);
  Alcotest.(check int) "no unmasked candidate" 0 !violations

(* --- failure injection -------------------------------------------------------- *)

let test_dimension_mismatch_rejected () =
  let x = Series.create [| [| 1; 2 |] |] and y = Series.of_list [ 1; 2; 3 ] in
  (match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"dim" ~x ~y () with
   | _ -> Alcotest.fail "dimension mismatch accepted"
   | exception Ppst.Client.Incompatible _ -> ())

let test_negative_coordinates_rejected () =
  let y = Series.of_list [ 1; -2; 3 ] in
  (match
     Ppst.Server.create
       ~rng:(Secure_rng.of_seed_string "neg-coord")
       ~series:y ~max_value:10 ()
   with
   | _ -> Alcotest.fail "negative coordinate accepted"
   | exception Invalid_argument _ -> ())

let test_client_bound_violation_rejected () =
  let x = Series.of_list [ 1; 200 ] and y = Series.of_list [ 1; 2 ] in
  (match Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"bound" ~max_value:100 ~x ~y () with
   | _ -> Alcotest.fail "out-of-bound accepted"
   | exception (Ppst.Client.Incompatible _ | Invalid_argument _) -> ())

let test_server_rejects_garbage_candidates () =
  let rng = Secure_rng.of_seed_string "garbage" in
  let server =
    Ppst.Server.create ~rng ~series:(Series.of_list [ 1; 2 ]) ~max_value:10 ()
  in
  (* a candidate outside [0, n²) must yield Error_reply, not an exception *)
  let bad = Bigint.neg Bigint.one in
  (match Ppst.Server.handle server (Message.Min_request [| bad |]) with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "garbage accepted");
  (* fewer than two candidates is ill-formed *)
  (match Ppst.Server.handle server (Message.Min_request [| Bigint.one |]) with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "single candidate accepted")

let test_server_reveal_counting () =
  let rng = Secure_rng.of_seed_string "reveals" in
  let server =
    Ppst.Server.create ~rng ~series:(Series.of_list [ 1; 2 ]) ~max_value:10 ()
  in
  Alcotest.(check int) "none yet" 0 (Ppst.Server.reveal_count server);
  let pk = Ppst.Server.public_key server in
  let c = Paillier.encrypt pk rng (Bigint.of_int 5) in
  (match
     Ppst.Server.handle server
       (Message.Reveal_request (Paillier.ciphertext_to_bigint c))
   with
   | Message.Reveal_reply v -> Alcotest.check eq_bi "value" (Bigint.of_int 5) v
   | _ -> Alcotest.fail "reveal failed");
  Alcotest.(check int) "counted" 1 (Ppst.Server.reveal_count server)

let test_reveal_budget_enforced () =
  let rng = Secure_rng.of_seed_string "budget" in
  let server =
    Ppst.Server.create ~max_reveals:2 ~rng ~series:(Series.of_list [ 1; 2 ])
      ~max_value:10 ()
  in
  let pk = Ppst.Server.public_key server in
  let ask () =
    Ppst.Server.handle server
      (Message.Reveal_request
         (Paillier.ciphertext_to_bigint (Paillier.encrypt pk rng (Bigint.of_int 5))))
  in
  (match ask () with Message.Reveal_reply _ -> () | _ -> Alcotest.fail "first reveal");
  (match ask () with Message.Reveal_reply _ -> () | _ -> Alcotest.fail "second reveal");
  (match ask () with
   | Message.Error_reply _ -> ()
   | _ -> Alcotest.fail "third reveal allowed");
  Alcotest.(check int) "only two disclosed" 2 (Ppst.Server.reveal_count server);
  (match
     Ppst.Server.create ~max_reveals:0 ~rng ~series:(Series.of_list [ 1 ])
       ~max_value:10 ()
   with
   | _ -> Alcotest.fail "zero budget accepted"
   | exception Invalid_argument _ -> ())

let test_wrong_reply_kind_detected () =
  (* a server that answers Hello with Bye_ack must trip the client *)
  let channel = Channel.local (fun _ -> Message.Bye_ack { server_seconds = 0.0 }) in
  (match
     Ppst.Client.connect
       ~rng:(Secure_rng.of_seed_string "wrong-reply")
       ~series:(Series.of_list [ 1 ])
       ~max_value:10 ~distance:`Dtw channel
   with
   | _ -> Alcotest.fail "bad reply accepted"
   | exception Channel.Protocol_error _ -> ())

let test_connect_sends_one_hello () =
  (* a refused Hello is the answer: no retry on a bare Hello *)
  let hellos = ref 0 in
  let channel =
    Channel.local (function
      | Message.Hello _ ->
        incr hellos;
        Message.Error_reply "hello refused"
      | _ -> Message.Error_reply "unexpected request")
  in
  (match
     Ppst.Client.connect
       ~rng:(Secure_rng.of_seed_string "one-hello")
       ~series:(Series.of_list [ 1 ])
       ~max_value:10 ~distance:`Dtw channel
   with
   | _ -> Alcotest.fail "refused Hello accepted"
   | exception Channel.Protocol_error _ -> ());
  Alcotest.(check int) "Hellos sent" 1 !hellos

let () =
  Alcotest.run "protocol"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "plan derivation" `Quick test_params_plan_basic;
          Alcotest.test_case "DFD bound tighter" `Quick test_params_dfd_bound_smaller;
          Alcotest.test_case "k >= 4 enforced" `Quick test_params_k_too_small;
          Alcotest.test_case "slack constraint" `Quick test_params_slack_constraint;
          Alcotest.test_case "wrap-around guard" `Quick test_params_wraparound_guard;
          Alcotest.test_case "bad arguments" `Quick test_params_bad_args;
          Alcotest.test_case "offset range fits k" `Quick
            test_params_offset_range_fits_k;
          prop_params_guards;
          Alcotest.test_case "value-bound overflow is typed" `Quick
            test_params_bound_overflow_typed;
          Alcotest.test_case "value bound exact at 256 bits" `Quick
            test_params_bound_exact_wide_key;
        ] );
      ( "masking",
        [
          Alcotest.test_case "offsets sorted/distinct/in-range" `Quick
            test_offsets_sorted_distinct_in_range;
          Alcotest.test_case "secure-min candidates" `Quick
            test_prepare_min_counts_and_correctness;
          Alcotest.test_case "secure-max candidates" `Quick
            test_prepare_max_counts_and_correctness;
          Alcotest.test_case "empty inputs rejected" `Quick test_prepare_rejects_empty;
          Alcotest.test_case "candidates re-randomized" `Quick test_candidates_rerandomized;
          Alcotest.test_case "masked minimum exact (30 rounds)" `Quick
            test_masked_min_many_rounds;
          prop_native_plans_equal_reference;
          Alcotest.test_case "plans around the native bound" `Quick
            test_plans_around_the_native_bound;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "paper example DTW" `Quick test_dtw_paper_example;
          Alcotest.test_case "paper example DFD" `Quick test_dfd_paper_example;
          Alcotest.test_case "single elements" `Quick test_single_element_series;
          Alcotest.test_case "identical series" `Quick test_identical_series;
          Alcotest.test_case "unequal lengths" `Quick test_unequal_lengths;
          Alcotest.test_case "multi-dimensional" `Quick test_multidimensional_protocol;
          Alcotest.test_case "random-set sizes" `Slow test_various_k;
          Alcotest.test_case "larger keys" `Slow test_larger_keys;
          Alcotest.test_case "zero values" `Quick test_zero_values_allowed;
          Alcotest.test_case "randomness-independent" `Quick test_determinism_across_seeds;
          prop_dtw_equals_plaintext;
          prop_dfd_equals_plaintext;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "DTW communication closed form" `Quick
            test_communication_formula_dtw;
          Alcotest.test_case "DFD communication closed form" `Quick
            test_communication_formula_dfd;
          Alcotest.test_case "paper d+k+4 per entry" `Quick test_paper_per_entry_formula;
          Alcotest.test_case "operation counters" `Quick test_cost_counters;
          Alcotest.test_case "offline pool never misses" `Quick
            test_offline_pool_has_no_misses;
          Alcotest.test_case "DFD costs ~2x DTW" `Quick test_dfd_costs_more_than_dtw;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "pooled = unpooled transcript" `Quick
            test_pooled_unpooled_transcripts_identical;
          Alcotest.test_case "packed = unpacked distance" `Slow
            test_packed_matches_unpacked;
          Alcotest.test_case "packing fallback on small keys" `Quick
            test_packing_fallback_small_key;
        ] );
      ( "hiding",
        [
          Alcotest.test_case "matrix encrypted, path hidden" `Quick
            test_matrix_stays_encrypted_and_path_hidden;
          Alcotest.test_case "server sees only masked values" `Quick
            test_server_never_sees_unmasked_values;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "dimension mismatch" `Quick test_dimension_mismatch_rejected;
          Alcotest.test_case "negative coordinates" `Quick
            test_negative_coordinates_rejected;
          Alcotest.test_case "bound violation" `Quick test_client_bound_violation_rejected;
          Alcotest.test_case "garbage candidates" `Quick
            test_server_rejects_garbage_candidates;
          Alcotest.test_case "reveal counting" `Quick test_server_reveal_counting;
          Alcotest.test_case "reveal budget" `Quick test_reveal_budget_enforced;
          Alcotest.test_case "wrong reply kind" `Quick test_wrong_reply_kind_detected;
          Alcotest.test_case "one Hello per connect" `Quick test_connect_sends_one_hello;
        ] );
    ]
