(* Fixed-base exponentiation by a Lim–Lee comb (Lim and Lee, CRYPTO '94).

   When one base is raised to many different exponents under the same
   modulus — Paillier's subgroup-noise generator — it pays to precompute
   a table once.  The comb reads an exponent of [max_bits] bits as
   [teeth] rows of [combs * span] bits each, every row cut into [combs]
   sub-combs of [span] bits: bit c of sub-comb j of row k sits at
   position k*combs*span + j*span + c.  Sub-comb j's table holds, for
   every nonzero teeth pattern i,

     table.(j).(i-1) = prod over the set bits k of i of base^(2^(k*combs*span + j*span))

   in Montgomery form.  A power walks the columns c from span-1 down to
   0: one squaring per column after the first, then one product per
   sub-comb whose teeth pattern at column c is nonzero: span - 1
   squarings and at most combs * span products.

   With teeth t (the [?window] argument, default 8) and combs 4 (fewer
   when a row holds fewer than 4 bits), the table holds combs * (2^t - 1)
   residues, built with (t * combs - 1) * span squarings and
   combs * (2^t - 1 - t) products.  At the packed profile's 576-bit
   exponent: 1,020 residues from about 1,546 products, and a power in 17
   squarings plus at most 72 products.  Tables are immutable after
   [create] and safe to share across Domains. *)

type t = {
  mont : Montgomery.ctx;
  teeth : int;                         (* rows of the exponent *)
  combs : int;                         (* sub-combs per row *)
  span : int;                          (* bits per sub-comb *)
  table : Montgomery.elt array array;  (* table.(j).(i-1), see above *)
}

let default_teeth = 8
let max_combs = 4

let create ?(window = default_teeth) (ctx : Modular.ctx) ~max_bits (base : Bigint.t) : t =
  if window < 1 || window > 8 then invalid_arg "Fixed_base.create: window";
  if max_bits < 1 then invalid_arg "Fixed_base.create: max_bits";
  let mont = Modular.mont_of_ctx ctx in
  let teeth = min window max_bits in
  let row = (max_bits + teeth - 1) / teeth in
  let combs = min max_combs row in
  let span = (row + combs - 1) / combs in
  (* tooth.(k * combs + j) = base^(2^((k * combs + j) * span)): each from
     the one before by [span] squarings. *)
  let tooth = Array.make (teeth * combs) (Modular.to_mont_ctx ctx base) in
  for s = 1 to (teeth * combs) - 1 do
    let x = ref tooth.(s - 1) in
    for _ = 1 to span do
      x := Montgomery.mont_mul_raw mont !x !x
    done;
    tooth.(s) <- !x
  done;
  (* Pattern i is pattern (i minus its top bit k) times tooth k. *)
  let per_comb = (1 lsl teeth) - 1 in
  let table =
    Array.init combs (fun j ->
        let entries = Array.make per_comb tooth.(j) in
        for k = 0 to teeth - 1 do
          let top = 1 lsl k in
          let t = tooth.((k * combs) + j) in
          entries.(top - 1) <- t;
          for rest = 1 to top - 1 do
            entries.(top + rest - 1) <- Montgomery.mont_mul_raw mont entries.(rest - 1) t
          done
        done;
        entries)
  in
  { mont; teeth; combs; span; table }

let max_bits t = t.teeth * t.combs * t.span

(* [exponent] must fit in [max_bits t] bits. *)
let pow_raw (t : t) (exponent : Bigint.t) : Montgomery.elt =
  if Bigint.is_negative exponent then
    invalid_arg "Fixed_base.pow_raw: negative exponent";
  let e = Bigint.magnitude exponent in
  let nbits = Nat.num_bits e in
  if nbits > max_bits t then
    invalid_arg "Fixed_base.pow_raw: exponent exceeds table size";
  let row = t.combs * t.span in
  let pattern j c =
    let i = ref 0 in
    for k = t.teeth - 1 downto 0 do
      i := (!i lsl 1) lor Bool.to_int (Nat.testbit e ((k * row) + (j * t.span) + c))
    done;
    !i
  in
  let acc = ref (Montgomery.one_raw t.mont) in
  for c = t.span - 1 downto 0 do
    if c < t.span - 1 then acc := Montgomery.mont_mul_raw t.mont !acc !acc;
    for j = 0 to t.combs - 1 do
      let i = pattern j c in
      if i <> 0 then acc := Montgomery.mont_mul_raw t.mont !acc t.table.(j).(i - 1)
    done
  done;
  !acc

let pow (ctx : Modular.ctx) (t : t) (exponent : Bigint.t) : Bigint.t =
  Modular.of_mont_ctx ctx (pow_raw t exponent)
