(* Low-level unsigned limb-vector arithmetic.

   Invariants relied upon throughout:
   - limbs are little-endian, each in [0, 2^31);
   - values are normalized (no most-significant zero limbs, zero = [||]);
   - intermediate products fit native ints: with B = 2^31,
     (B-1)^2 + (B-1) + (B-1) = 2^62 - 1 = max_int on 64-bit OCaml. *)

type t = int array

let base_bits = 31
let base = 1 lsl base_bits
let base_mask = base - 1

let zero : t = [||]
let one : t = [| 1 |]

let is_zero a = Array.length a = 0

let normalize (a : t) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Nat.of_int: negative";
  if v = 0 then zero
  else if v < base then [| v |]
  else begin
    (* A native int needs at most three 31-bit limbs. *)
    let l0 = v land base_mask in
    let v1 = v lsr base_bits in
    let l1 = v1 land base_mask in
    let v2 = v1 lsr base_bits in
    if v2 = 0 then [| l0; l1 |] else [| l0; l1; v2 |]
  end

let to_int_opt (a : t) =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl base_bits))
  | 3 when a.(2) < 1 -> Some (a.(0) lor (a.(1) lsl base_bits))
  | _ -> None

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let lmax = if la > lb then la else lb in
    let r = Array.make (lmax + 1) 0 in
    let carry = ref 0 in
    for i = 0 to lmax - 1 do
      let ai = if i < la then a.(i) else 0 in
      let bi = if i < lb then b.(i) else 0 in
      let s = ai + bi + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(lmax) <- !carry;
    normalize r
  end

let add_int a v =
  if v < 0 then invalid_arg "Nat.add_int: negative";
  if v = 0 then a else add a (of_int v)

let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if lb > la then invalid_arg "Nat.sub: underflow";
  if lb = 0 then a
  else begin
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let bi = if i < lb then b.(i) else 0 in
      let d = a.(i) - bi - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end
      else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    if !borrow <> 0 then invalid_arg "Nat.sub: underflow";
    normalize r
  end

let mul_limb (a : t) (d : int) : t =
  if d < 0 || d >= base then invalid_arg "Nat.mul_limb: limb out of range";
  if d = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) * d) + !carry in
      r.(i) <- t land base_mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land base_mask;
          carry := t lsr base_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    normalize r
  end

let num_bits (a : t) =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width n acc = if n = 0 then acc else width (n lsr 1) (acc + 1) in
    ((la - 1) * base_bits) + width top 0
  end

let testbit (a : t) i =
  if i < 0 then invalid_arg "Nat.testbit: negative index";
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left (a : t) s =
  if s < 0 then invalid_arg "Nat.shift_left: negative shift";
  if s = 0 || is_zero a then a
  else begin
    let limbs = s / base_bits and bits = s mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let t = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- t land base_mask;
        carry := t lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right (a : t) s =
  if s < 0 then invalid_arg "Nat.shift_right: negative shift";
  if s = 0 || is_zero a then a
  else begin
    let limbs = s / base_bits and bits = s mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi =
            if i + limbs + 1 < la then
              (a.(i + limbs + 1) lsl (base_bits - bits)) land base_mask
            else 0
          in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

let divmod_limb (a : t) (d : int) : t * int =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_limb: divisor out of range";
  let la = Array.length a in
  if la = 0 then (zero, 0)
  else begin
    let q = Array.make la 0 in
    let rem = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!rem lsl base_bits) lor a.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (normalize q, !rem)
  end

(* Knuth TAOCP vol.2 Algorithm D.  [u] and [v] normalized, [v] has at least
   two limbs, [u >= v]. *)
let divmod_knuth (u : t) (v : t) : t * t =
  let n = Array.length v in
  let m = Array.length u - n in
  (* D1: normalize so the divisor's top limb has its high bit set. *)
  let rec width x acc = if x = 0 then acc else width (x lsr 1) (acc + 1) in
  let s = base_bits - width v.(n - 1) 0 in
  let vn =
    if s = 0 then Array.copy v
    else begin
      let r = Array.make n 0 in
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let t = (v.(i) lsl s) lor !carry in
        r.(i) <- t land base_mask;
        carry := t lsr base_bits
      done;
      assert (!carry = 0);
      r
    end
  in
  let un = Array.make (m + n + 1) 0 in
  if s = 0 then Array.blit u 0 un 0 (m + n)
  else begin
    let carry = ref 0 in
    for i = 0 to (m + n) - 1 do
      let t = (u.(i) lsl s) lor !carry in
      un.(i) <- t land base_mask;
      carry := t lsr base_bits
    done;
    un.(m + n) <- !carry
  end;
  let q = Array.make (m + 1) 0 in
  let vtop = vn.(n - 1) and vsnd = vn.(n - 2) in
  for j = m downto 0 do
    (* D3: estimate the quotient limb. *)
    let top = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (top / vtop) in
    let rhat = ref (top mod vtop) in
    let adjusting = ref true in
    while
      !adjusting
      && (!qhat >= base
          || !qhat * vsnd > (!rhat lsl base_bits) lor un.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vtop;
      if !rhat >= base then adjusting := false
    done;
    (* D4: multiply and subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr base_bits;
      let d = un.(j + i) - (p land base_mask) - !borrow in
      if d < 0 then begin
        un.(j + i) <- d + base;
        borrow := 1
      end
      else begin
        un.(j + i) <- d;
        borrow := 0
      end
    done;
    let d = un.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* D6: the estimate was one too large; add the divisor back. *)
      un.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let t = un.(j + i) + vn.(i) + !c in
        un.(j + i) <- t land base_mask;
        c := t lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !c) land base_mask
    end
    else un.(j + n) <- d;
    q.(j) <- !qhat
  done;
  (* D8: denormalize the remainder. *)
  let r = Array.make n 0 in
  if s = 0 then Array.blit un 0 r 0 n
  else begin
    for i = 0 to n - 1 do
      let lo = un.(i) lsr s in
      let hi = if i + 1 <= n then (un.(i + 1) lsl (base_bits - s)) land base_mask else 0 in
      r.(i) <- lo lor hi
    done
  end;
  (normalize q, normalize r)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

(* Both codecs run a bit accumulator over whole limbs: bytes enter (or
   leave) at the accumulator's top (bottom), and a limb is taken (or
   loaded) once 31 bits (fewer than 8) are held, so the accumulator
   never exceeds 38 bits. *)
let of_bytes_be (s : string) : t =
  let len = String.length s in
  let r = Array.make (((len * 8) + base_bits - 1) / base_bits) 0 in
  let acc = ref 0 and held = ref 0 and limb = ref 0 in
  for k = len - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s k) lsl !held);
    held := !held + 8;
    if !held >= base_bits then begin
      r.(!limb) <- !acc land base_mask;
      incr limb;
      acc := !acc lsr base_bits;
      held := !held - base_bits
    end
  done;
  if !held > 0 then r.(!limb) <- !acc;
  normalize r

let to_bytes_be (a : t) : string =
  let nbytes = (num_bits a + 7) / 8 in
  let buf = Bytes.create nbytes in
  let acc = ref 0 and held = ref 0 and limb = ref 0 in
  for k = nbytes - 1 downto 0 do
    if !held < 8 then begin
      (* the top byte may reach past the last limb *)
      if !limb < Array.length a then acc := !acc lor (a.(!limb) lsl !held);
      incr limb;
      held := !held + base_bits
    end;
    Bytes.unsafe_set buf k (Char.unsafe_chr (!acc land 0xFF));
    acc := !acc lsr 8;
    held := !held - 8
  done;
  Bytes.unsafe_to_string buf

let pp fmt (a : t) =
  if is_zero a then Format.pp_print_string fmt "0x0"
  else begin
    Format.pp_print_string fmt "0x";
    String.iter (fun c -> Format.fprintf fmt "%02x" (Char.code c)) (to_bytes_be a)
  end
