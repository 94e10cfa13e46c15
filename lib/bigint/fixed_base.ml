(* Fixed-base windowed exponentiation (Brickell–Gordon–McCurley–Wilson).

   When one base is raised to many different exponents under the same
   modulus — Paillier noise generators, subgroup generators — it pays to
   precompute, once, the table

     tbl.(j).(i-1) = base^(i * 2^(j*w))  in Montgomery form

   for window width w, digit values i in 1..2^w-1 and digit positions
   j covering [max_bits] exponent bits.  An exponentiation then splits
   the exponent into base-2^w digits and multiplies one table entry per
   nonzero digit: ~ceil(bits/w) Montgomery multiplications and NO
   squarings, versus ~1.2*bits for a generic ladder.

   The table costs (2^w - 1) * ceil(bits/w) entries; w = 4 over 1088
   bits is ~4080 entries of 32 64-bit limbs (~1 MB for a 2048-bit
   modulus) built with one multiplication each.  Tables are immutable
   after [create] and safe to share across Domains. *)

type t = {
  mont : Montgomery.ctx;
  window : int;                 (* digit width w in bits *)
  digits : int;                 (* number of digit positions *)
  table : Montgomery.elt array array; (* table.(j).(i-1) = base^(i * 2^(jw)), mont form *)
}

let default_window = 4

let create ?(window = default_window) (ctx : Modular.ctx) ~max_bits (base : Bigint.t) : t =
  if window < 1 || window > 8 then invalid_arg "Fixed_base.create: window";
  if max_bits < 1 then invalid_arg "Fixed_base.create: max_bits";
  let mont = Modular.mont_of_ctx ctx in
  let digits = (max_bits + window - 1) / window in
  let per_digit = (1 lsl window) - 1 in
  let b = Modular.to_mont_ctx ctx base in
  let table = Array.make digits [||] in
  (* Row j is built from row j-1's top entry: base^(2^((j+1)w)) =
     (base^(2^(jw)))^(2^w), obtained by w squarings of the row head. *)
  let head = ref b in
  for j = 0 to digits - 1 do
    let row = Array.make per_digit !head in
    for i = 1 to per_digit - 1 do
      row.(i) <- Montgomery.mont_mul_raw mont row.(i - 1) !head
    done;
    table.(j) <- row;
    if j < digits - 1 then begin
      let h = ref !head in
      for _ = 1 to window do
        h := Montgomery.mont_mul_raw mont !h !h
      done;
      head := !h
    end
  done;
  { mont; window; digits; table }

let max_bits t = t.digits * t.window

(* [exponent] must fit in [max_bits t] bits. *)
let pow_raw (t : t) (exponent : Bigint.t) : Montgomery.elt =
  if Bigint.is_negative exponent then
    invalid_arg "Fixed_base.pow_raw: negative exponent";
  let e = Bigint.magnitude exponent in
  let nbits = Nat.num_bits e in
  if nbits > t.digits * t.window then
    invalid_arg "Fixed_base.pow_raw: exponent exceeds table size";
  let acc = ref (Montgomery.one_raw t.mont) in
  let used = (nbits + t.window - 1) / t.window in
  for j = 0 to used - 1 do
    let d = ref 0 in
    for b = t.window - 1 downto 0 do
      let bit = (j * t.window) + b in
      d := (!d lsl 1) lor (if bit < nbits && Nat.testbit e bit then 1 else 0)
    done;
    if !d <> 0 then acc := Montgomery.mont_mul_raw t.mont !acc t.table.(j).(!d - 1)
  done;
  !acc

let pow (ctx : Modular.ctx) (t : t) (exponent : Bigint.t) : Bigint.t =
  Modular.of_mont_ctx ctx (pow_raw t exponent)
