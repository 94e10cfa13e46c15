(* Montgomery modular multiplication and exponentiation for odd moduli.
   This is the workhorse of Paillier: every encryption/decryption is a
   modular exponentiation mod n or n^2.

   A context fixes the modulus n (w 64-bit limbs) and R = 2^(64w).
   Values are kept in Montgomery form aR mod n; mont_mul computes
   (aR)(bR)R^-1 = abR, i.e. multiplication stays in form.  The
   arithmetic runs in C (mont_stubs.c): a value in form is a Bytes.t of
   exactly w limbs, and the context's kernel holds the limbs of n and
   -n^-1 mod 2^64.  Conversions to and from Nat happen only at the
   entries: [to_mont], [of_mont], and the Paillier entries at the end,
   each of which takes Nat operands and packs them itself. *)

type elt = Bytes.t

type ctx = {
  width : int;         (* w, the modulus's length in 64-bit limbs *)
  kernel : Bytes.t;    (* the w limbs of the modulus, then -modulus^-1 mod 2^64 *)
  plain_one : Bytes.t; (* the integer 1 in w limbs: a product with it leaves form *)
  one : elt;           (* R mod n: Montgomery form of 1 *)
  r2 : elt;            (* R^2 mod n: a product with it enters form *)
}

exception Even_modulus

external kernel_of_modulus : Nat.t -> Bytes.t = "ppst_mont_kernel"
external limbs_of_nat : int -> Nat.t -> Bytes.t = "ppst_mont_limbs_of_nat"
external nat_of_limbs : Bytes.t -> Nat.t = "ppst_mont_nat_of_limbs"
external mul : Bytes.t -> elt -> elt -> elt = "ppst_mont_mul"
external pow : Bytes.t -> elt -> elt -> Nat.t -> elt = "ppst_mont_pow"
external pow_nat : Bytes.t -> elt -> elt -> Nat.t -> Nat.t -> elt = "ppst_mont_pow_nat"
external seal_kernel : Bytes.t -> elt -> Nat.t -> Nat.t -> elt -> elt = "ppst_mont_seal"

let create (modulus : Nat.t) : ctx =
  if Nat.is_zero modulus || not (Nat.testbit modulus 0) then raise Even_modulus;
  let kernel = kernel_of_modulus modulus in
  let width = (Bytes.length kernel / 8) - 1 in
  let r_mod = snd (Nat.divmod (Nat.shift_left Nat.one (64 * width)) modulus) in
  let r2_mod = snd (Nat.divmod (Nat.mul r_mod r_mod) modulus) in
  let limbs = limbs_of_nat width in
  { width; kernel; plain_one = limbs Nat.one; one = limbs r_mod; r2 = limbs r2_mod }

let mont_mul_raw ctx a b = mul ctx.kernel a b

(* [a] may be any value below R, reduced or not: the product with
   R^2 mod n still lands in [0, n). *)
let to_mont ctx (a : Nat.t) : elt =
  mul ctx.kernel (limbs_of_nat ctx.width a) ctx.r2

let of_mont ctx (a : elt) : Nat.t = nat_of_limbs (mul ctx.kernel a ctx.plain_one)

let one_raw ctx = ctx.one

let pow_raw ctx (x : elt) (exponent : Nat.t) : elt = pow ctx.kernel ctx.one x exponent

(* [base_nat] must already be reduced mod the modulus. *)
let pow_mod ctx (base_nat : Nat.t) (exponent : Nat.t) : Nat.t =
  of_mont ctx (pow_raw ctx (to_mont ctx base_nat) exponent)

(* a b R^-1, then times R^2 R^-1: two products, no conversion into form. *)
let mul_mod ctx (a : Nat.t) (b : Nat.t) : Nat.t =
  let limbs = limbs_of_nat ctx.width in
  nat_of_limbs (mul ctx.kernel (mul ctx.kernel (limbs a) (limbs b)) ctx.r2)

let pow_of_nat ctx (x : Nat.t) (exponent : Nat.t) : elt =
  pow_nat ctx.kernel ctx.one ctx.r2 x exponent

let seal ctx ~n m y = seal_kernel ctx.kernel ctx.r2 n m y

(* A Paillier key's kernel context: one block that mont_stubs.c lays out
   from the parts below and reads in each CRT entry. *)
type crt = Bytes.t

external crt_of_parts : Bytes.t array -> crt = "ppst_mont_crt"
external crt_decrypt : crt -> Nat.t -> Nat.t option = "ppst_mont_crt_decrypt"
external crt_is_unit : crt -> Nat.t -> bool = "ppst_mont_crt_is_unit"
external crt_noise : crt -> Nat.t -> elt = "ppst_mont_crt_noise"

let crt_create ~p ~q ~n2 ~hp ~hq ~p_inv_q ~p2_inv_q2 =
  let cp = create p and cq = create q in
  let cp2 = create (Nat.mul p p) and cq2 = create (Nat.mul q q) in
  crt_of_parts
    [|
      cp.kernel; cp.r2; cq.kernel; cq.r2; cp2.kernel; cp2.r2; cq2.kernel; cq2.r2;
      n2.kernel; n2.r2;
      to_mont cp hp;
      mul cq.kernel (to_mont cq hq) cq.r2;
      limbs_of_nat cq.width p_inv_q;
      limbs_of_nat cq2.width p2_inv_q2;
    |]
