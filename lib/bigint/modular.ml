(* Modular arithmetic on Bigint values: exponentiation, inverses, GCD.
   Exponentiation dispatches to Montgomery for odd moduli (the only case
   Paillier needs) and falls back to divide-based square-and-multiply for
   even moduli so it stays total.  GCD and inverses run in the C kernel;
   the inverse takes odd moduli only. *)

exception Not_invertible

let check_modulus m =
  if Bigint.compare m Bigint.zero <= 0 then
    invalid_arg "Modular: modulus must be positive"

let reduce a m = Bigint.erem a m

let add a b m =
  check_modulus m;
  Bigint.erem (Bigint.add a b) m

let sub a b m =
  check_modulus m;
  Bigint.erem (Bigint.sub a b) m

let mul a b m =
  check_modulus m;
  Bigint.erem (Bigint.mul a b) m

external gcd_nat : Nat.t -> Nat.t -> Nat.t = "ppst_mont_gcd"
external coprime_nat : Nat.t -> Nat.t -> bool = "ppst_mont_coprime"
external invert_nat : Nat.t -> Nat.t -> Nat.t = "ppst_mont_invert"

(* Binary GCD over 64-bit limbs in C (mont_stubs.c).  It runs at key
   generation.  A party holding only the public key tests each nonce with
   [coprime], the same GCD with no Nat result; the key holder folds the
   nonce mod p and q instead (Montgomery.crt_is_unit). *)
let gcd a b = Bigint.of_nat (gcd_nat (Bigint.magnitude a) (Bigint.magnitude b))

let coprime a b = coprime_nat (Bigint.magnitude a) (Bigint.magnitude b)

let lcm a b =
  if Bigint.is_zero a || Bigint.is_zero b then Bigint.zero
  else Bigint.abs (Bigint.div (Bigint.mul a b) (gcd a b))

(* Extended Euclid: returns (g, u, v) with u*a + v*b = g = gcd(a, b).
   The reference the tests hold the C inverse to. *)
let egcd a b =
  let rec go r0 r1 s0 s1 t0 t1 =
    if Bigint.is_zero r1 then (r0, s0, t0)
    else begin
      let q, r2 = Bigint.divmod r0 r1 in
      go r1 r2 s1 (Bigint.sub s0 (Bigint.mul q s1)) t1 (Bigint.sub t0 (Bigint.mul q t1))
    end
  in
  go a b Bigint.one Bigint.zero Bigint.zero Bigint.one

(* Binary extended Euclid in C, which refuses an even modulus: every
   caller inverts modulo n, p, q, q^2 or n^2.  The C returns 0 for a
   non-unit, which no unit's inverse is once m > 1. *)
let invert a m =
  check_modulus m;
  if Bigint.equal m Bigint.one then Bigint.zero
  else begin
    let inv = invert_nat (Bigint.magnitude (reduce a m)) (Bigint.magnitude m) in
    if Nat.is_zero inv then raise Not_invertible;
    Bigint.of_nat inv
  end

(* Naive square-and-multiply with full division at each step.  Only used
   for even moduli; all cryptographic moduli here are odd. *)
let pow_mod_naive base exponent m =
  let base = ref (reduce base m) in
  let acc = ref (reduce Bigint.one m) in
  let nbits = Bigint.num_bits exponent in
  for i = 0 to nbits - 1 do
    if Bigint.testbit exponent i then acc := mul !acc !base m;
    base := mul !base !base m
  done;
  !acc

let pow_mod ?ctx base exponent m =
  check_modulus m;
  if Bigint.is_negative exponent then
    invalid_arg "Modular.pow_mod: negative exponent (invert first)";
  let base = reduce base m in
  if Bigint.is_odd m then begin
    let ctx =
      match ctx with
      | Some c -> c
      | None -> Montgomery.create (Bigint.magnitude m)
    in
    Bigint.of_nat
      (Montgomery.pow_mod ctx (Bigint.magnitude base) (Bigint.magnitude exponent))
  end
  else pow_mod_naive base exponent m

(* Reusable Montgomery context wrapped at the Bigint level, so callers with
   a fixed modulus (Paillier's n and n^2) pay context setup once. *)
type ctx = { modulus : Bigint.t; mont : Montgomery.ctx }

let make_ctx m =
  check_modulus m;
  if Bigint.is_even m then invalid_arg "Modular.make_ctx: even modulus";
  { modulus = m; mont = Montgomery.create (Bigint.magnitude m) }

let ctx_modulus c = c.modulus

let pow_ctx c base exponent =
  if Bigint.is_negative exponent then
    invalid_arg "Modular.pow_ctx: negative exponent (invert first)";
  let base = reduce base c.modulus in
  Bigint.of_nat
    (Montgomery.pow_mod c.mont (Bigint.magnitude base) (Bigint.magnitude exponent))

let mul_ctx c a b =
  let a = reduce a c.modulus and b = reduce b c.modulus in
  Bigint.of_nat
    (Montgomery.mul_mod c.mont (Bigint.magnitude a) (Bigint.magnitude b))

let mont_of_ctx c = c.mont

let to_mont_ctx c a =
  Montgomery.to_mont c.mont (Bigint.magnitude (reduce a c.modulus))

let of_mont_ctx c a = Bigint.of_nat (Montgomery.of_mont c.mont a)
