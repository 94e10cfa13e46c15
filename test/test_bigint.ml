(* Tests for the bignum substrate: Bigint/Nat arithmetic, Montgomery
   exponentiation, modular inverses, primality.  Properties are checked
   with qcheck against ring axioms and division invariants; fixed vectors
   cross-check against independently computed values. *)

open Ppst_bigint

let bi = Bigint.of_string
let eq_bi = Alcotest.testable Bigint.pp Bigint.equal

(* --- generators -------------------------------------------------------- *)

(* Random Bigint of up to ~200 bits, signed, built from decimal digits so
   shrinking stays meaningful. *)
let gen_bigint =
  let open QCheck2.Gen in
  let* digits = int_range 1 60 in
  let* s = string_size ~gen:(char_range '0' '9') (return digits) in
  let* neg = bool in
  let v = Bigint.of_string s in
  return (if neg then Bigint.neg v else v)

let gen_positive =
  QCheck2.Gen.map Bigint.abs gen_bigint
  |> QCheck2.Gen.map (fun v -> if Bigint.is_zero v then Bigint.one else v)

let arb_bigint = gen_bigint
let arb_positive = gen_positive
let print_bi = Bigint.to_string

let qtest name ?(count = 500) gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~print:print_bi ~count gen prop)

let qtest2 name ?(count = 500) g1 g2 prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count
       ~print:(fun (a, b) -> Printf.sprintf "(%s, %s)" (print_bi a) (print_bi b))
       (QCheck2.Gen.pair g1 g2)
       (fun (x, y) -> prop x y))

let qtest_triples name ?(count = 300) gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count
       ~print:(fun (a, b, c) ->
         Printf.sprintf "(%s, %s, %s)" (print_bi a) (print_bi b) (print_bi c))
       gen
       (fun (x, y, z) -> prop x y z))

let qtest3 name ?count g1 g2 g3 prop =
  qtest_triples name ?count (QCheck2.Gen.triple g1 g2 g3) prop

(* --- unit tests: conversions ------------------------------------------ *)

let test_of_int_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check (option int)) (string_of_int v) (Some v)
        (Bigint.to_int_opt (Bigint.of_int v)))
    [ 0; 1; -1; 42; -42; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 40 ]

let test_string_roundtrip_fixed () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Bigint.to_string (bi s)))
    [ "0"; "1"; "-1"; "123456789"; "-987654321012345678901234567890";
      "340282366920938463463374607431768211456" (* 2^128 *) ]

let test_hex_parse () =
  Alcotest.check eq_bi "0xff" (Bigint.of_int 255) (bi "0xff");
  Alcotest.check eq_bi "0xFF" (Bigint.of_int 255) (bi "0xFF");
  Alcotest.check eq_bi "-0x10" (Bigint.of_int (-16)) (bi "-0x10");
  Alcotest.check eq_bi "2^64"
    (bi "18446744073709551616")
    (bi "0x10000000000000000")

let test_hex_print () =
  Alcotest.(check string) "255" "0xff" (Bigint.to_string_hex (Bigint.of_int 255));
  Alcotest.(check string) "0" "0x0" (Bigint.to_string_hex Bigint.zero);
  Alcotest.(check string) "-16" "-0x10" (Bigint.to_string_hex (Bigint.of_int (-16)))

let test_of_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Bigint.of_string: bad digit")
        (fun () -> ignore (bi s)))
    [ "12a3"; "1.5" ];
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (bi ""));
  Alcotest.check_raises "sign only" (Invalid_argument "Bigint.of_string: sign only")
    (fun () -> ignore (bi "-"))

let test_underscores () =
  Alcotest.check eq_bi "1_000_000" (Bigint.of_int 1_000_000) (bi "1_000_000")

let test_bytes_roundtrip_fixed () =
  let v = bi "0x0123456789abcdef0123" in
  Alcotest.check eq_bi "bytes" v (Bigint.of_bytes_be (Bigint.to_bytes_be v));
  Alcotest.(check string) "zero bytes" "" (Bigint.to_bytes_be Bigint.zero);
  Alcotest.check eq_bi "leading zero bytes"
    (Bigint.of_int 1)
    (Bigint.of_bytes_be "\000\000\001")

(* --- unit tests: arithmetic fixed vectors ------------------------------ *)

let test_mul_fixed () =
  (* cross-checked with python3 *)
  Alcotest.check eq_bi "big product"
    (bi "121932631137021795226185032733622923332237463801111263526900")
    (Bigint.mul
       (bi "123456789012345678901234567890")
       (bi "987654321098765432109876543210"))

let test_karatsuba_crossover () =
  (* wide operands of all-ones limbs (49 and 39 limbs, the largest inner
     products), checked against the identity (a+1)(b+1) = ab + a + b + 1. *)
  let a = Bigint.pred (Bigint.shift_left Bigint.one 1500) in
  let b = Bigint.pred (Bigint.shift_left Bigint.one 1200) in
  let lhs = Bigint.mul (Bigint.succ a) (Bigint.succ b) in
  let rhs = Bigint.add (Bigint.add (Bigint.mul a b) (Bigint.add a b)) Bigint.one in
  Alcotest.check eq_bi "karatsuba identity" rhs lhs

let test_div_fixed () =
  let q, r = Bigint.divmod (bi "1000000000000000000000") (bi "7") in
  Alcotest.check eq_bi "q" (bi "142857142857142857142") q;
  Alcotest.check eq_bi "r" (bi "6") r

let test_div_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (Bigint.div Bigint.one Bigint.zero));
  Alcotest.check_raises "ediv0" Division_by_zero (fun () ->
      ignore (Bigint.ediv_rem Bigint.one Bigint.zero))

let test_truncated_division_signs () =
  (* same convention as native / and mod *)
  List.iter
    (fun (a, b) ->
      let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
      Alcotest.(check int) (Printf.sprintf "%d/%d q" a b) (a / b) (Bigint.to_int_exn q);
      Alcotest.(check int) (Printf.sprintf "%d mod %d" a b) (a mod b) (Bigint.to_int_exn r))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (6, 3); (-6, 3); (0, 5) ]

let test_euclidean_division_signs () =
  List.iter
    (fun (a, b) ->
      let q, r = Bigint.ediv_rem (Bigint.of_int a) (Bigint.of_int b) in
      let rv = Bigint.to_int_exn r in
      Alcotest.(check bool) (Printf.sprintf "0 <= r < |b| for %d %d" a b) true
        (rv >= 0 && rv < abs b);
      Alcotest.(check int) "reconstruct" a
        (Bigint.to_int_exn (Bigint.add (Bigint.mul q (Bigint.of_int b)) r)))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (-1, 3); (1, -3); (0, 7) ]

let test_pow () =
  Alcotest.check eq_bi "2^100"
    (bi "1267650600228229401496703205376")
    (Bigint.pow Bigint.two 100);
  Alcotest.check eq_bi "x^0" Bigint.one (Bigint.pow (bi "123") 0);
  Alcotest.check eq_bi "(-2)^3" (Bigint.of_int (-8)) (Bigint.pow (Bigint.of_int (-2)) 3);
  Alcotest.check_raises "neg exponent" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (Bigint.pow Bigint.two (-1)))

let test_shifts () =
  Alcotest.check eq_bi "1 << 100 >> 100" Bigint.one
    (Bigint.shift_right (Bigint.shift_left Bigint.one 100) 100);
  Alcotest.check eq_bi "7 >> 1" (Bigint.of_int 3) (Bigint.shift_right (Bigint.of_int 7) 1);
  Alcotest.check eq_bi "-8 << 2" (Bigint.of_int (-32))
    (Bigint.shift_left (Bigint.of_int (-8)) 2);
  Alcotest.check eq_bi "5 >> 10" Bigint.zero (Bigint.shift_right (Bigint.of_int 5) 10)

let test_num_bits () =
  Alcotest.(check int) "0" 0 (Bigint.num_bits Bigint.zero);
  Alcotest.(check int) "1" 1 (Bigint.num_bits Bigint.one);
  Alcotest.(check int) "255" 8 (Bigint.num_bits (Bigint.of_int 255));
  Alcotest.(check int) "256" 9 (Bigint.num_bits (Bigint.of_int 256));
  Alcotest.(check int) "2^100" 101 (Bigint.num_bits (Bigint.shift_left Bigint.one 100))

let test_testbit () =
  let v = Bigint.of_int 0b1010 in
  Alcotest.(check bool) "bit0" false (Bigint.testbit v 0);
  Alcotest.(check bool) "bit1" true (Bigint.testbit v 1);
  Alcotest.(check bool) "bit3" true (Bigint.testbit v 3);
  Alcotest.(check bool) "bit77" false (Bigint.testbit v 77)

let test_compare_ordering () =
  let sorted = List.map bi [ "-100"; "-1"; "0"; "1"; "99999999999999999999" ] in
  let shuffled = List.rev sorted in
  Alcotest.(check (list string))
    "sort" (List.map Bigint.to_string sorted)
    (List.map Bigint.to_string (List.sort Bigint.compare shuffled))

(* --- property tests: ring axioms --------------------------------------- *)

let prop_add_commutative = qtest2 "add commutative" arb_bigint arb_bigint
    (fun a b -> Bigint.equal (Bigint.add a b) (Bigint.add b a))

let prop_add_associative = qtest3 "add associative" arb_bigint arb_bigint arb_bigint
    (fun a b c ->
      Bigint.equal (Bigint.add (Bigint.add a b) c) (Bigint.add a (Bigint.add b c)))

let prop_mul_commutative = qtest2 "mul commutative" arb_bigint arb_bigint
    (fun a b -> Bigint.equal (Bigint.mul a b) (Bigint.mul b a))

let prop_mul_associative = qtest3 "mul associative" arb_bigint arb_bigint arb_bigint
    (fun a b c ->
      Bigint.equal (Bigint.mul (Bigint.mul a b) c) (Bigint.mul a (Bigint.mul b c)))

let prop_distributive = qtest3 "distributive" arb_bigint arb_bigint arb_bigint
    (fun a b c ->
      Bigint.equal
        (Bigint.mul a (Bigint.add b c))
        (Bigint.add (Bigint.mul a b) (Bigint.mul a c)))

let prop_add_neg = qtest "a + (-a) = 0" arb_bigint (fun a ->
    Bigint.is_zero (Bigint.add a (Bigint.neg a)))

let prop_sub_add = qtest2 "(a - b) + b = a" arb_bigint arb_bigint (fun a b ->
    Bigint.equal a (Bigint.add (Bigint.sub a b) b))

let prop_divmod_invariant = qtest2 "a = q*b + r, |r| < |b|" arb_bigint arb_positive
    (fun a b ->
      let q, r = Bigint.divmod a b in
      Bigint.equal a (Bigint.add (Bigint.mul q b) r)
      && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0)

let prop_ediv_invariant = qtest2 "euclidean: 0 <= r < b" arb_bigint arb_positive
    (fun a b ->
      let q, r = Bigint.ediv_rem a b in
      Bigint.equal a (Bigint.add (Bigint.mul q b) r)
      && not (Bigint.is_negative r)
      && Bigint.compare r b < 0)

let prop_string_roundtrip = qtest "decimal round-trip" arb_bigint (fun a ->
    Bigint.equal a (Bigint.of_string (Bigint.to_string a)))

let prop_hex_roundtrip = qtest "hex round-trip" arb_bigint (fun a ->
    Bigint.equal a (Bigint.of_string (Bigint.to_string_hex a)))

let prop_bytes_roundtrip = qtest "bytes round-trip (magnitude)" arb_bigint (fun a ->
    Bigint.equal (Bigint.abs a) (Bigint.of_bytes_be (Bigint.to_bytes_be a)))

let prop_shift_mul = qtest "shift_left = mul by 2^s" arb_bigint (fun a ->
    List.for_all
      (fun s ->
        Bigint.equal (Bigint.shift_left a s) (Bigint.mul a (Bigint.pow Bigint.two s)))
      [ 0; 1; 7; 31; 32; 63; 100 ])

let prop_shift_div = qtest "shift_right on non-negative = div by 2^s" arb_positive
    (fun a ->
      List.for_all
        (fun s ->
          Bigint.equal (Bigint.shift_right a s) (Bigint.div a (Bigint.pow Bigint.two s)))
        [ 0; 1; 7; 31; 32; 63 ])

let prop_karatsuba_vs_school =
  (* wide products (33 to 43 limbs) must obey the distributive law *)
  qtest2 "karatsuba consistent" ~count:50
    (
       (QCheck2.Gen.map
          (fun s -> Bigint.abs (Bigint.of_string ("1" ^ s)))
          QCheck2.Gen.(string_size ~gen:(char_range '0' '9') (int_range 300 400))))
    (
       (QCheck2.Gen.map
          (fun s -> Bigint.abs (Bigint.of_string ("1" ^ s)))
          QCheck2.Gen.(string_size ~gen:(char_range '0' '9') (int_range 300 400))))
    (fun a b ->
      (* (a + 1) * b = a*b + b *)
      Bigint.equal (Bigint.mul (Bigint.succ a) b) (Bigint.add (Bigint.mul a b) b))

(* --- modular arithmetic ------------------------------------------------ *)

let test_powmod_fixed () =
  Alcotest.check eq_bi "3^100 mod 7" (Bigint.of_int 4)
    (Modular.pow_mod (Bigint.of_int 3) (Bigint.of_int 100) (Bigint.of_int 7));
  (* cross-checked with python3: pow(123456789, 987654321, 1000000007) *)
  Alcotest.check eq_bi "big powmod" (bi "652541198")
    (Modular.pow_mod (bi "123456789") (bi "987654321") (bi "1000000007"))

let test_powmod_even_modulus () =
  Alcotest.check eq_bi "3^5 mod 16" (Bigint.of_int 3)
    (Modular.pow_mod (Bigint.of_int 3) (Bigint.of_int 5) (Bigint.of_int 16))

let test_powmod_edge_cases () =
  let m = bi "1000000007" in
  Alcotest.check eq_bi "x^0 = 1" Bigint.one (Modular.pow_mod (bi "12345") Bigint.zero m);
  Alcotest.check eq_bi "0^5 = 0" Bigint.zero (Modular.pow_mod Bigint.zero (bi "5") m);
  Alcotest.check eq_bi "x^1 = x" (bi "12345") (Modular.pow_mod (bi "12345") Bigint.one m);
  Alcotest.check eq_bi "mod 1 = 0" Bigint.zero (Modular.pow_mod (bi "5") (bi "5") Bigint.one)

let gen_odd =
  QCheck2.Gen.map
    (fun v ->
      let v = Bigint.abs v in
      let v = if Bigint.is_even v then Bigint.succ v else v in
      if Bigint.compare v (Bigint.of_int 3) < 0 then Bigint.of_int 3 else v)
    gen_bigint

(* A value of exactly [len] bits, [len] = 0 and 1 giving 0 and 1. *)
let exact_bits rng len =
  if len <= 1 then Bigint.of_int len
  else Bigint.add (Bigint.shift_left Bigint.one (len - 1)) (Splitmix.bits rng (len - 1))

(* (base, exponent, odd modulus) at the Montgomery kernel's edges:
   moduli of 1 to 70 64-bit limbs (top limb partly or wholly used, or
   all ones), bases 0, 1, n - 1, R mod n with R = 2^(64w) and unreduced
   ones, exponents 0, 1, all-ones, and exactly 12, 13, 24, 25, 80 or 81
   bits long, either side of the power's first three window widenings. *)
let gen_kernel_case =
  let open QCheck2.Gen in
  let* limbs = int_range 1 70 in
  let* top_bits = int_range 1 64 in
  let* all_ones_modulus = bool in
  let* seed = int in
  let rng = Splitmix.create seed in
  let bits = (64 * (limbs - 1)) + top_bits in
  let m =
    if all_ones_modulus then Bigint.pred (Bigint.shift_left Bigint.one bits)
    else
      let v = exact_bits rng bits in
      if Bigint.is_even v then Bigint.succ v else v
  in
  let r_mod = Bigint.erem (Bigint.shift_left Bigint.one (64 * limbs)) m in
  let* b =
    oneofl
      [ Bigint.zero; Bigint.one; Bigint.pred m; r_mod; Splitmix.bits rng bits;
        Splitmix.bits rng (2 * bits) ]
  in
  let* ones = int_range 1 130 in
  let* edge = oneofl [ 12; 13; 24; 25; 80; 81 ] in
  let+ e =
    oneofl
      [ Bigint.zero; Bigint.one; Bigint.pred (Bigint.shift_left Bigint.one ones);
        Splitmix.bits rng 130; exact_bits rng edge ]
  in
  (b, e, m)

let prop_montgomery_vs_naive =
  (* Montgomery exponentiation agrees with multiply-and-reduce, and so do
     one in-form product and the to_mont/of_mont round trip. *)
  qtest_triples "montgomery = naive powmod" ~count:200
    QCheck2.Gen.(oneof [ triple arb_positive arb_positive gen_odd; gen_kernel_case ])
    (fun b e m ->
      let naive =
        let b = ref (Bigint.erem b m) and acc = ref (Bigint.erem Bigint.one m) in
        for i = 0 to Bigint.num_bits e - 1 do
          if Bigint.testbit e i then acc := Bigint.erem (Bigint.mul !acc !b) m;
          b := Bigint.erem (Bigint.mul !b !b) m
        done;
        !acc
      in
      let ctx = Modular.make_ctx m in
      let x = Bigint.erem b m and y = Bigint.erem e m in
      let mx = Modular.to_mont_ctx ctx x and my = Modular.to_mont_ctx ctx y in
      let product = Montgomery.mont_mul_raw (Modular.mont_of_ctx ctx) mx my in
      (* one block as both operands takes the kernel's square, which
         must leave the canonical form: the same limbs as converting the
         reduced square *)
      let square = Montgomery.mont_mul_raw (Modular.mont_of_ctx ctx) mx mx in
      Bigint.equal naive (Modular.pow_mod b e m)
      && Bigint.equal x (Modular.of_mont_ctx ctx mx)
      && Bigint.equal (Bigint.erem (Bigint.mul x y) m) (Modular.of_mont_ctx ctx product)
      && square = Modular.to_mont_ctx ctx (Bigint.erem (Bigint.mul x x) m))

(* Powers whose exponents reach the wide windows: lengths either side of
   the widenings at 240 and 672 bits, 1,100 bits, 1,793 bits (past the
   widening at 1,792) and short ones, so that x^(e1 + e2) = x^e1 x^e2
   sets windows of different widths against each other, on moduli of 1
   to 70 limbs. *)
let prop_montgomery_pow_splits =
  let gen =
    let open QCheck2.Gen in
    let* limbs = int_range 1 70 in
    let* seed = int in
    let* len1 = oneofl [ 1; 12; 13; 240; 241; 672; 673; 1100; 1793 ] in
    let+ len2 = oneofl [ 0; 5; 25; 81; 239; 240; 671; 672; 1000 ] in
    let rng = Splitmix.create seed in
    let m = Bigint.succ (Bigint.shift_left (Splitmix.bits rng ((64 * limbs) - 1)) 1) in
    (Bigint.erem (Splitmix.bits rng (64 * limbs)) m, exact_bits rng len1, m, exact_bits rng len2)
  in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"montgomery x^(e1+e2) = x^e1 x^e2, windows 1-7" ~count:60
       ~print:(fun (x, e1, m, e2) ->
         String.concat ", " (List.map print_bi [ x; e1; m; e2 ]))
       gen
       (fun (x, e1, m, e2) ->
         let ctx = Modular.make_ctx m in
         let mont = Modular.mont_of_ctx ctx in
         let mx = Modular.to_mont_ctx ctx x in
         let pow e = Montgomery.pow_raw mont mx (Bigint.magnitude e) in
         pow (Bigint.add e1 e2) = Montgomery.mont_mul_raw mont (pow e1) (pow e2))

(* Operands whose limbs are all 2^64 - 1, at every width from 1 to 70
   limbs, so that every column sum of a product or square carries into
   its third limb: n - 1 under the all-ones modulus n = R - 1 (its own
   Montgomery form, as R = 1 mod n), and R - 1 into to_mont under that
   modulus and under a random one. *)
let test_montgomery_all_ones_limbs () =
  let rng = Splitmix.create 4242 in
  for limbs = 1 to 70 do
    let r = Bigint.shift_left Bigint.one (64 * limbs) in
    let r_minus_1 = Bigint.magnitude (Bigint.pred r) in
    let n = Bigint.pred r in
    let ctx = Modular.make_ctx n in
    let mont = Modular.mont_of_ctx ctx in
    let form v = Modular.to_mont_ctx ctx v in
    let name what = Printf.sprintf "%s, %d limbs" what limbs in
    let top = Bigint.pred n in
    let x = form top in
    Alcotest.(check bool) (name "n - 1 is its own form") true
      (Montgomery.to_mont mont (Bigint.magnitude top) = x);
    Alcotest.(check bool) (name "(n - 1)^2 = 1") true
      (Montgomery.mont_mul_raw mont x x = form Bigint.one);
    Alcotest.(check bool) (name "(n - 1)(n - 2) = 2") true
      (Montgomery.mont_mul_raw mont x (form (Bigint.pred top)) = form (Bigint.of_int 2));
    Alcotest.(check bool) (name "(n - 1)^(2^64 - 1) = n - 1") true
      (Montgomery.pow_raw mont x (Bigint.magnitude (Bigint.pred (Bigint.shift_left Bigint.one 64)))
       = x);
    Alcotest.(check bool) (name "to_mont (R - 1) = 0") true
      (Montgomery.to_mont mont r_minus_1 = form Bigint.zero);
    let m = Bigint.succ (Bigint.shift_left (Splitmix.bits rng ((64 * limbs) - 1)) 1) in
    let ctx = Modular.make_ctx m in
    let mont = Modular.mont_of_ctx ctx in
    let y = Montgomery.to_mont mont r_minus_1 in
    let reduced = Bigint.erem (Bigint.pred r) m in
    Alcotest.(check bool) (name "to_mont (R - 1), random modulus") true
      (y = Modular.to_mont_ctx ctx reduced);
    Alcotest.check eq_bi (name "of_mont, random modulus") reduced (Modular.of_mont_ctx ctx y)
  done

let prop_fermat =
  (* Fermat's little theorem with a fixed large prime *)
  let p = bi "170141183460469231731687303715884105727" (* 2^127 - 1, prime *) in
  qtest "fermat little theorem mod 2^127-1" ~count:50 arb_positive (fun a ->
      let a = Bigint.succ (Bigint.erem a (Bigint.pred p)) in
      Bigint.equal Bigint.one (Modular.pow_mod a (Bigint.pred p) p))

let test_gcd_lcm () =
  Alcotest.check eq_bi "gcd 12 18" (Bigint.of_int 6)
    (Modular.gcd (Bigint.of_int 12) (Bigint.of_int 18));
  Alcotest.check eq_bi "gcd 0 5" (Bigint.of_int 5) (Modular.gcd Bigint.zero (Bigint.of_int 5));
  Alcotest.check eq_bi "gcd 5 0" (Bigint.of_int 5) (Modular.gcd (Bigint.of_int 5) Bigint.zero);
  Alcotest.check eq_bi "gcd 0 0" Bigint.zero (Modular.gcd Bigint.zero Bigint.zero);
  Alcotest.check eq_bi "gcd negative" (Bigint.of_int 6)
    (Modular.gcd (Bigint.of_int (-12)) (Bigint.of_int 18));
  Alcotest.check eq_bi "lcm 4 6" (Bigint.of_int 12)
    (Modular.lcm (Bigint.of_int 4) (Bigint.of_int 6))

let prop_gcd_divides = qtest2 "gcd divides both" arb_positive arb_positive (fun a b ->
    let g = Modular.gcd a b in
    Bigint.is_zero (Bigint.rem a g) && Bigint.is_zero (Bigint.rem b g))

let prop_egcd_bezout = qtest2 "egcd bezout identity" arb_positive arb_positive
    (fun a b ->
      let g, u, v = Modular.egcd a b in
      Bigint.equal g (Bigint.add (Bigint.mul u a) (Bigint.mul v b)))

let test_invert () =
  let m = bi "1000000007" in
  let a = bi "123456" in
  let inv = Modular.invert a m in
  Alcotest.check eq_bi "a * a^-1 = 1" Bigint.one (Bigint.erem (Bigint.mul a inv) m);
  Alcotest.check_raises "not invertible" Modular.Not_invertible (fun () ->
      ignore (Modular.invert (Bigint.of_int 6) (Bigint.of_int 9)));
  Alcotest.check eq_bi "mod 1" Bigint.zero (Modular.invert a Bigint.one);
  Alcotest.check eq_bi "negative a" (Modular.invert (Bigint.sub m a) m)
    (Modular.invert (Bigint.neg a) m);
  Alcotest.check_raises "even modulus" (Invalid_argument "Modular.invert: even modulus")
    (fun () -> ignore (Modular.invert (Bigint.of_int 3) (Bigint.of_int 8)))

(* (a, m) at the edges of the binary GCD and inverse: operands of 1 to
   70 64-bit limbs, a zero operand, a >= m, a shared power of two, equal
   operands, m = 1, and an odd factor shared by a and m. *)
let gen_gcd_case =
  let open QCheck2.Gen in
  let* a_limbs = int_range 1 70 in
  let* m_limbs = int_range 1 70 in
  let* twos = int_range 1 140 in
  let* seed = int in
  let rng = Splitmix.create seed in
  let draw limbs = Bigint.succ (Splitmix.bits rng (64 * limbs)) in
  let odd v = if Bigint.is_even v then Bigint.succ v else v in
  let a = draw a_limbs and m = draw m_limbs in
  let factor = odd (Splitmix.bits rng (64 * (1 + (seed land 3)))) in
  oneofl
    [
      (a, m); (a, odd m); (Bigint.zero, m); (a, Bigint.zero); (a, a);
      (Bigint.add a (Bigint.mul m a), m);
      (Bigint.shift_left a twos, Bigint.shift_left m twos);
      (a, Bigint.one);
      (Bigint.mul a factor, Bigint.mul (odd m) factor);
    ]

let prop_gcd_invert_vs_euclid =
  (* Modular.gcd against Euclid in this file, Modular.invert (odd m)
     against Modular.egcd; a non-unit raises Not_invertible *)
  let rec euclid a b = if Bigint.is_zero b then a else euclid b (Bigint.rem a b) in
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"binary gcd and inverse = euclid, 1-70 limbs" ~count:300
       ~print:(fun (a, m) -> Printf.sprintf "(%s, %s)" (print_bi a) (print_bi m))
       gen_gcd_case
       (fun (a, m) ->
         let gcd_ok =
           Bigint.equal (euclid a m) (Modular.gcd a m)
           && Bigint.equal (euclid m a) (Modular.gcd m a)
         in
         let invert_ok =
           Bigint.is_zero m || Bigint.is_even m
           ||
           let expected =
             let g, u, _ = Modular.egcd (Bigint.erem a m) m in
             if Bigint.equal g Bigint.one then Some (Bigint.erem u m) else None
           in
           let got = try Some (Modular.invert a m) with Modular.Not_invertible -> None in
           Option.equal Bigint.equal expected got
         in
         gcd_ok && invert_ok)

let prop_invert = qtest "invert mod prime" ~count:200 arb_positive (fun a ->
    let p = bi "170141183460469231731687303715884105727" in
    let a = Bigint.succ (Bigint.erem a (Bigint.pred p)) in
    Bigint.equal Bigint.one (Bigint.erem (Bigint.mul a (Modular.invert a p)) p))

let test_modular_ctx () =
  let m = bi "0xffffffffffffffc5" (* odd 64-bit *) in
  let ctx = Modular.make_ctx m in
  Alcotest.check eq_bi "ctx modulus" m (Modular.ctx_modulus ctx);
  Alcotest.check eq_bi "pow_ctx = pow_mod"
    (Modular.pow_mod (bi "987654321") (bi "1234567") m)
    (Modular.pow_ctx ctx (bi "987654321") (bi "1234567"));
  Alcotest.check eq_bi "mul_ctx"
    (Bigint.erem (Bigint.mul (bi "111111111111") (bi "222222222222")) m)
    (Modular.mul_ctx ctx (bi "111111111111") (bi "222222222222"));
  Alcotest.check_raises "even modulus rejected"
    (Invalid_argument "Modular.make_ctx: even modulus") (fun () ->
      ignore (Modular.make_ctx (Bigint.of_int 16)));
  (* a value in Montgomery form is refused by a context of another width *)
  let wide = Modular.make_ctx (bi "0xf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f1") in
  let x = Modular.to_mont_ctx wide (bi "12345") in
  let mismatch = Invalid_argument "Montgomery: operand width does not match its context" in
  let mont = Modular.mont_of_ctx ctx in
  Alcotest.check_raises "mont_mul_raw" mismatch (fun () ->
      ignore (Montgomery.mont_mul_raw mont x (Montgomery.one_raw mont)));
  Alcotest.check_raises "pow_raw" mismatch (fun () ->
      ignore (Montgomery.pow_raw mont x (Bigint.magnitude (bi "3"))));
  Alcotest.check_raises "of_mont" mismatch (fun () -> ignore (Modular.of_mont_ctx ctx x))

(* The kernel keeps no global state: two Domains exponentiating under one
   shared context agree with one Domain doing all the work. *)
let test_montgomery_shared_across_domains () =
  let rng = Splitmix.create 2048 in
  let m = Bigint.succ (Bigint.shift_left (Splitmix.bits rng 1022) 1) in
  let ctx = Modular.make_ctx m in
  let mont = Modular.mont_of_ctx ctx in
  let inputs = Array.init 24 (fun _ -> (Splitmix.bits rng 1023, Splitmix.bits rng 160)) in
  let run () =
    Array.map
      (fun (b, e) ->
        let x = Modular.to_mont_ctx ctx b in
        Modular.of_mont_ctx ctx
          (Montgomery.mont_mul_raw mont x (Montgomery.pow_raw mont x (Bigint.magnitude e))))
      inputs
  in
  let alone = run () in
  let other = Domain.spawn run in
  let here = run () in
  let there = Domain.join other in
  Array.iteri
    (fun i (b, e) ->
      let expected = Modular.pow_mod b (Bigint.succ e) m in
      Alcotest.check eq_bi "one domain" expected alone.(i);
      Alcotest.check eq_bi "shared, this domain" expected here.(i);
      Alcotest.check eq_bi "shared, other domain" expected there.(i))
    inputs

(* Differential: the windowed Montgomery ladder against the naive
   fallback on every degenerate shape — zero exponent, modulus one, base
   a multiple of the modulus, tiny exponents (below the window width)
   and exponents with long zero runs (window restart boundaries). *)
let test_powmod_degenerate_differential () =
  let check b e m =
    Alcotest.check eq_bi
      (Printf.sprintf "%s^%s mod %s" (Bigint.to_string b) (Bigint.to_string e)
         (Bigint.to_string m))
      (Modular.pow_mod_naive b e m) (Modular.pow_mod b e m)
  in
  let m = bi "1000000007" in
  check (bi "12345") Bigint.zero m;
  check Bigint.zero Bigint.zero m;
  check (bi "5") (bi "5") Bigint.one;
  check (bi "5") Bigint.zero Bigint.one;
  check m (bi "7") m;
  check (Bigint.mul m (bi "4")) (bi "7") m;
  (* exponents below the window width take the plain-ladder path *)
  for e = 0 to 17 do
    check (bi "987654321") (Bigint.of_int e) m
  done;
  (* one bits separated by > window zero runs *)
  check (bi "3") (bi "0x100000001000000010000000100000001") m;
  check (bi "3") (bi "0x80000000000000000000000000000001") m

let prop_powmod_vs_naive_wide =
  (* wide inputs through the windowed path, odd modulus *)
  qtest_triples "windowed = naive powmod (wide)" ~count:100
    QCheck2.Gen.(oneof [ triple arb_positive arb_positive gen_odd; gen_kernel_case ])
    (fun b e m -> Bigint.equal (Modular.pow_mod_naive b e m) (Modular.pow_mod b e m))

let prop_powmod_even_vs_reference =
  (* the even-modulus fallback against multiply-and-reduce *)
  let gen_even =
    QCheck2.Gen.map
      (fun v ->
        let v = Bigint.abs v in
        let v = if Bigint.is_even v then v else Bigint.succ v in
        if Bigint.compare v (Bigint.of_int 2) < 0 then Bigint.of_int 2 else v)
      gen_bigint
  in
  qtest3 "even-modulus powmod = reference" ~count:100 arb_positive arb_positive
    gen_even
    (fun b e m ->
      let reference =
        let b = ref (Bigint.erem b m) and acc = ref (Bigint.erem Bigint.one m) in
        for i = 0 to Bigint.num_bits e - 1 do
          if Bigint.testbit e i then acc := Bigint.erem (Bigint.mul !acc !b) m;
          b := Bigint.erem (Bigint.mul !b !b) m
        done;
        !acc
      in
      Bigint.equal reference (Modular.pow_mod b e m))

(* --- fixed-base tables -------------------------------------------------- *)

let test_fixed_base_matches_pow_mod () =
  let m = bi "0xf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f1" (* odd 128-bit *) in
  let ctx = Modular.make_ctx m in
  let base = bi "987654321123456789" in
  let table = Fixed_base.create ctx ~max_bits:96 base in
  Alcotest.(check int) "max_bits" 96 (Fixed_base.max_bits table);
  let rng = Ppst_rng.Secure_rng.of_seed_string "fixed-base-vs-powmod" in
  for _ = 1 to 50 do
    let e = Ppst_rng.Secure_rng.bits rng 96 in
    Alcotest.check eq_bi "table = pow_mod" (Modular.pow_mod base e m)
      (Fixed_base.pow ctx table e)
  done;
  (* boundary exponents: 0, 1, all-ones at the table's full width *)
  Alcotest.check eq_bi "e = 0" Bigint.one (Fixed_base.pow ctx table Bigint.zero);
  Alcotest.check eq_bi "e = 1" (Bigint.erem base m)
    (Fixed_base.pow ctx table Bigint.one);
  let all_ones = Bigint.pred (Bigint.shift_left Bigint.one 96) in
  Alcotest.check eq_bi "e all ones" (Modular.pow_mod base all_ones m)
    (Fixed_base.pow ctx table all_ones)

let test_fixed_base_rejects () =
  let m = bi "1000000007" in
  let ctx = Modular.make_ctx m in
  let table = Fixed_base.create ctx ~max_bits:16 (bi "3") in
  Alcotest.check_raises "too wide"
    (Invalid_argument "Fixed_base.pow_raw: exponent exceeds table size")
    (fun () -> ignore (Fixed_base.pow ctx table (Bigint.shift_left Bigint.one 16)));
  Alcotest.check_raises "negative"
    (Invalid_argument "Fixed_base.pow_raw: negative exponent") (fun () ->
      ignore (Fixed_base.pow ctx table Bigint.minus_one));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Fixed_base.create: window") (fun () ->
      ignore (Fixed_base.create ~window:0 ctx ~max_bits:16 (bi "3")))

let test_fixed_base_windows_agree () =
  let m = bi "0xffffffffffffffc5" in
  let ctx = Modular.make_ctx m in
  let base = bi "1234567" in
  let rng = Ppst_rng.Secure_rng.of_seed_string "fixed-base-windows" in
  let tables =
    List.map (fun w -> Fixed_base.create ~window:w ctx ~max_bits:64 base) [ 1; 3; 4; 8 ]
  in
  for _ = 1 to 25 do
    let e = Ppst_rng.Secure_rng.bits rng 64 in
    let expected = Modular.pow_mod base e m in
    List.iter
      (fun t -> Alcotest.check eq_bi "window-independent" expected (Fixed_base.pow ctx t e))
      tables
  done

(* --- primes ------------------------------------------------------------ *)

let test_small_primes () =
  Alcotest.(check int) "168 primes below 1000" 168 (Array.length Prime.small_primes);
  Alcotest.(check int) "first" 2 Prime.small_primes.(0);
  Alcotest.(check int) "last" 997 Prime.small_primes.(167)

let test_is_prime_small () =
  let primes = [ 2; 3; 5; 7; 11; 97; 101; 997; 1009; 7919 ] in
  let composites = [ 0; 1; 4; 9; 15; 91 (* 7*13 *); 561 (* Carmichael *); 1001; 7917 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool) (string_of_int p) true
        (Prime.is_probable_prime (Bigint.of_int p)))
    primes;
  List.iter
    (fun c ->
      Alcotest.(check bool) (string_of_int c) false
        (Prime.is_probable_prime (Bigint.of_int c)))
    composites

let test_is_prime_large () =
  Alcotest.(check bool) "2^127 - 1 prime" true
    (Prime.is_probable_prime (bi "170141183460469231731687303715884105727"));
  Alcotest.(check bool) "2^128 + 1 composite" false
    (Prime.is_probable_prime (bi "340282366920938463463374607431768211457"));
  (* large Carmichael-style pseudoprime: 3215031751 = 151*751*28351 fools
     bases 2,3,5,7 in the Fermat test *)
  Alcotest.(check bool) "strong pseudoprime caught" false
    (Prime.is_probable_prime (bi "3215031751"))

let test_random_prime_bits () =
  let rng = Splitmix.create 99 in
  let random_bits b = Splitmix.bits rng b in
  List.iter
    (fun bits ->
      let p = Prime.random_prime ~random_bits ~bits in
      Alcotest.(check int) (Printf.sprintf "%d bits" bits) bits (Bigint.num_bits p);
      Alcotest.(check bool) "prime" true (Prime.is_probable_prime p);
      Alcotest.(check bool) "second-highest bit set" true (Bigint.testbit p (bits - 2)))
    [ 16; 32; 48; 64; 128 ]

let test_random_prime_bounded () =
  (* 65535 = 3 * 5 * 17 * 257 is odd with its top two bits set, so a
     source stuck on it offers the same composite forever *)
  let draws = ref 0 in
  let random_bits _ = incr draws; Bigint.of_int 65535 in
  match Prime.random_prime ~random_bits ~bits:16 with
  | p -> Alcotest.failf "returned %s" (Bigint.to_string p)
  | exception Prime.No_prime_found { bits; candidates } ->
    Alcotest.(check int) "bits" 16 bits;
    Alcotest.(check int) "candidates" 1600 candidates;
    Alcotest.(check int) "draws" 1600 !draws

(* With the top two bits and the bottom bit forced, 2 and 3 bits leave
   one candidate each, 3 and 7, whatever the source offers; below 2 bits
   there is no top pair to force. *)
let test_random_prime_narrowest () =
  let random_bits _ = Bigint.zero in
  List.iter
    (fun (bits, p) ->
      Alcotest.check eq_bi (Printf.sprintf "%d bits" bits) (Bigint.of_int p)
        (Prime.random_prime ~random_bits ~bits))
    [ (2, 3); (3, 7) ];
  List.iter
    (fun bits ->
      match Prime.random_prime ~random_bits ~bits with
      | p -> Alcotest.failf "%d bits returned %s" bits (Bigint.to_string p)
      | exception Invalid_argument _ -> ())
    [ 1; 0; -1 ]

let prop_prime_products_composite =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"product of two primes > 3 is composite" ~count:50
    ~print:string_of_int
    QCheck2.Gen.(int_range 0 160)
    (fun i ->
      let p = Bigint.of_int Prime.small_primes.(i + 2) in
      let q = Bigint.of_int Prime.small_primes.(i + 3) in
      not (Prime.is_probable_prime (Bigint.mul p q)))

(* --- edge cases and division stress -------------------------------------- *)

let test_limb_boundary_values () =
  (* values at and around the base-2^31 limb boundary and the native-int
     boundary must round-trip through every representation *)
  let interesting =
    [ (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 1; (1 lsl 62) - 1;
      -((1 lsl 31) - 1); -(1 lsl 31) ]
  in
  List.iter
    (fun v ->
      let b = Bigint.of_int v in
      Alcotest.(check (option int)) (string_of_int v) (Some v) (Bigint.to_int_opt b);
      Alcotest.check eq_bi "via string" b (bi (Bigint.to_string b));
      Alcotest.check eq_bi "via hex" b (bi (Bigint.to_string_hex b)))
    interesting

let test_division_addback_branch () =
  (* Knuth D step D6 (the "add back" correction) triggers only for rare
     divisor/dividend patterns; this pair is constructed so the first
     quotient estimate overshoots: u = B^2 * (B/2) and v = (B/2)*B + 1
     with B = 2^31. *)
  let b31 = Bigint.shift_left Bigint.one 31 in
  let half = Bigint.shift_left Bigint.one 30 in
  let v = Bigint.add (Bigint.mul half b31) Bigint.one in
  let u = Bigint.mul (Bigint.mul b31 b31) half in
  let q, r = Bigint.divmod u v in
  Alcotest.check eq_bi "reconstruct" u (Bigint.add (Bigint.mul q v) r);
  Alcotest.(check bool) "remainder bound" true
    (Bigint.compare r v < 0 && not (Bigint.is_negative r));
  (* sweep a family of near-boundary divisors for the same property *)
  for offset = 1 to 50 do
    let v = Bigint.add (Bigint.mul half b31) (Bigint.of_int offset) in
    let u = Bigint.sub (Bigint.mul (Bigint.mul b31 b31) half) (Bigint.of_int offset) in
    let q, r = Bigint.divmod u v in
    Alcotest.check eq_bi "sweep reconstruct" u (Bigint.add (Bigint.mul q v) r);
    Alcotest.(check bool) "sweep remainder" true
      (Bigint.compare r v < 0 && not (Bigint.is_negative r))
  done

let test_division_equal_operands () =
  let v = bi "123456789012345678901234567890" in
  let q, r = Bigint.divmod v v in
  Alcotest.check eq_bi "q" Bigint.one q;
  Alcotest.check eq_bi "r" Bigint.zero r;
  let q2, r2 = Bigint.divmod v (Bigint.succ v) in
  Alcotest.check eq_bi "smaller dividend q" Bigint.zero q2;
  Alcotest.check eq_bi "smaller dividend r" v r2

let test_power_of_two_arithmetic () =
  (* exact powers of two stress normalization and shifting paths *)
  List.iter
    (fun bits ->
      let p = Bigint.shift_left Bigint.one bits in
      Alcotest.(check int) "num_bits" (bits + 1) (Bigint.num_bits p);
      let q, r = Bigint.divmod p Bigint.two in
      Alcotest.check eq_bi "p/2" (Bigint.shift_left Bigint.one (bits - 1)) q;
      Alcotest.check eq_bi "rem" Bigint.zero r;
      Alcotest.check eq_bi "p-1 + 1" p (Bigint.succ (Bigint.pred p)))
    [ 31; 32; 62; 63; 64; 93; 124; 1000 ]

let test_isqrt_fixed () =
  List.iter
    (fun (v, expected) ->
      Alcotest.check eq_bi (Printf.sprintf "isqrt %s" v) (bi expected)
        (Bigint.isqrt (bi v)))
    [ ("0", "0"); ("1", "1"); ("2", "1"); ("3", "1"); ("4", "2"); ("99", "9");
      ("100", "10"); ("101", "10");
      ("340282366920938463463374607431768211456", "18446744073709551616") ];
  Alcotest.check_raises "negative" (Invalid_argument "Bigint.isqrt: negative argument")
    (fun () -> ignore (Bigint.isqrt Bigint.minus_one))

let prop_isqrt = qtest "isqrt(n)^2 <= n < (isqrt(n)+1)^2" arb_positive (fun n ->
    let r = Bigint.isqrt n in
    Bigint.compare (Bigint.mul r r) n <= 0
    && Bigint.compare n (Bigint.mul (Bigint.succ r) (Bigint.succ r)) < 0)

let prop_isqrt_of_square = qtest "isqrt(n^2) = n" arb_positive (fun n ->
    Bigint.equal n (Bigint.isqrt (Bigint.mul n n)))

let prop_divmod_stress_wide =
  (* dividend much wider than divisor: exercises long quotient loops *)
  qtest2 "wide-dividend division invariant" ~count:200
    (QCheck2.Gen.map
       (fun s -> Bigint.abs (Bigint.of_string ("9" ^ s)))
       QCheck2.Gen.(string_size ~gen:(char_range '0' '9') (int_range 150 250)))
    (QCheck2.Gen.map
       (fun s -> Bigint.abs (Bigint.of_string ("1" ^ s)))
       QCheck2.Gen.(string_size ~gen:(char_range '0' '9') (int_range 1 20)))
    (fun a b ->
      let q, r = Bigint.divmod a b in
      Bigint.equal a (Bigint.add (Bigint.mul q b) r)
      && Bigint.compare r b < 0
      && not (Bigint.is_negative r))

(* --- splitmix ----------------------------------------------------------- *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 1 and b = Splitmix.create 1 in
  for _ = 1 to 10 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done

let test_splitmix_bounds () =
  let rng = Splitmix.create 5 in
  for _ = 1 to 1000 do
    let v = Splitmix.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  let big = Splitmix.bits rng 100 in
  Alcotest.(check bool) "bit bound" true (Bigint.num_bits big <= 100)

let () =
  Alcotest.run "bigint"
    [
      ( "conversions",
        [
          Alcotest.test_case "of_int/to_int round-trip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "decimal strings" `Quick test_string_roundtrip_fixed;
          Alcotest.test_case "hex parse" `Quick test_hex_parse;
          Alcotest.test_case "hex print" `Quick test_hex_print;
          Alcotest.test_case "invalid strings rejected" `Quick test_of_string_invalid;
          Alcotest.test_case "underscore separators" `Quick test_underscores;
          Alcotest.test_case "bytes round-trip" `Quick test_bytes_roundtrip_fixed;
          prop_string_roundtrip;
          prop_hex_roundtrip;
          prop_bytes_roundtrip;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "fixed product" `Quick test_mul_fixed;
          Alcotest.test_case "karatsuba crossover" `Quick test_karatsuba_crossover;
          Alcotest.test_case "fixed division" `Quick test_div_fixed;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "truncated division signs" `Quick test_truncated_division_signs;
          Alcotest.test_case "euclidean division signs" `Quick test_euclidean_division_signs;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "num_bits" `Quick test_num_bits;
          Alcotest.test_case "testbit" `Quick test_testbit;
          Alcotest.test_case "ordering" `Quick test_compare_ordering;
          prop_add_commutative;
          prop_add_associative;
          prop_mul_commutative;
          prop_mul_associative;
          prop_distributive;
          prop_add_neg;
          prop_sub_add;
          prop_divmod_invariant;
          prop_ediv_invariant;
          prop_shift_mul;
          prop_shift_div;
          prop_karatsuba_vs_school;
        ] );
      ( "modular",
        [
          Alcotest.test_case "powmod fixed" `Quick test_powmod_fixed;
          Alcotest.test_case "powmod even modulus" `Quick test_powmod_even_modulus;
          Alcotest.test_case "powmod edge cases" `Quick test_powmod_edge_cases;
          Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "invert" `Quick test_invert;
          Alcotest.test_case "montgomery context" `Quick test_modular_ctx;
          Alcotest.test_case "montgomery context shared by two domains" `Quick
            test_montgomery_shared_across_domains;
          Alcotest.test_case "powmod degenerate differential" `Quick
            test_powmod_degenerate_differential;
          Alcotest.test_case "montgomery all-ones limbs, 1-70 limbs" `Quick
            test_montgomery_all_ones_limbs;
          prop_montgomery_vs_naive;
          prop_montgomery_pow_splits;
          prop_powmod_vs_naive_wide;
          prop_powmod_even_vs_reference;
          prop_fermat;
          prop_gcd_divides;
          prop_egcd_bezout;
          prop_invert;
          prop_gcd_invert_vs_euclid;
        ] );
      ( "fixed base",
        [
          Alcotest.test_case "table = pow_mod" `Quick test_fixed_base_matches_pow_mod;
          Alcotest.test_case "rejections" `Quick test_fixed_base_rejects;
          Alcotest.test_case "windows agree" `Quick test_fixed_base_windows_agree;
        ] );
      ( "primes",
        [
          Alcotest.test_case "small prime table" `Quick test_small_primes;
          Alcotest.test_case "small primality" `Quick test_is_prime_small;
          Alcotest.test_case "large primality" `Quick test_is_prime_large;
          Alcotest.test_case "random primes have exact size" `Slow test_random_prime_bits;
          Alcotest.test_case "search bounded on a stuck source" `Quick
            test_random_prime_bounded;
          Alcotest.test_case "narrowest widths" `Quick test_random_prime_narrowest;
          prop_prime_products_composite;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "limb boundaries" `Quick test_limb_boundary_values;
          Alcotest.test_case "division add-back branch" `Quick
            test_division_addback_branch;
          Alcotest.test_case "equal operands" `Quick test_division_equal_operands;
          Alcotest.test_case "powers of two" `Quick test_power_of_two_arithmetic;
          Alcotest.test_case "isqrt fixed vectors" `Quick test_isqrt_fixed;
          prop_isqrt;
          prop_isqrt_of_square;
          prop_divmod_stress_wide;
        ] );
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "bounds" `Quick test_splitmix_bounds;
        ] );
    ]
