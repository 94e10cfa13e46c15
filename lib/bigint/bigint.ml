(* Sign-and-magnitude integers over Nat limb vectors.
   Invariant: [sign = 0] iff the magnitude is zero; otherwise sign is ±1. *)

type t = { sign : int; mag : Nat.t }

let zero = { sign = 0; mag = Nat.zero }
let one = { sign = 1; mag = Nat.one }
let two = { sign = 1; mag = Nat.of_int 2 }
let minus_one = { sign = -1; mag = Nat.one }

let of_nat mag = if Nat.is_zero mag then zero else { sign = 1; mag }
let magnitude t = t.mag

let of_int v =
  if v = 0 then zero
  else if v > 0 then { sign = 1; mag = Nat.of_int v }
  else if v = Stdlib.min_int then
    (* -min_int overflows; build it as -(max_int) - 1. *)
    { sign = -1; mag = Nat.add_int (Nat.of_int Stdlib.max_int) 1 }
  else { sign = -1; mag = Nat.of_int (-v) }

(* min_int's magnitude is 2^62, one past what Nat.to_int_opt can return. *)
let min_int_magnitude = Nat.add_int (Nat.of_int Stdlib.max_int) 1

let to_int_opt t =
  match Nat.to_int_opt t.mag with
  | Some m when t.sign >= 0 -> Some m
  | Some m -> Some (-m)
  | None ->
    if t.sign < 0 && Nat.equal t.mag min_int_magnitude then Some Stdlib.min_int
    else None

let to_int_exn t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: out of native int range"

let sign t = t.sign
let is_zero t = t.sign = 0
let is_negative t = t.sign < 0
let is_even t = t.sign = 0 || not (Nat.testbit t.mag 0)
let is_odd t = not (is_even t)
let num_bits t = Nat.num_bits t.mag
let testbit t i = Nat.testbit t.mag i

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then Nat.compare a.mag b.mag
  else Nat.compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash t = t.sign * Hashtbl.hash t.mag

let neg t = if t.sign = 0 then zero else { t with sign = -t.sign }
let abs t = if t.sign < 0 then { t with sign = 1 } else t

(* Signed addition on magnitudes: combine same-sign by Nat.add, opposite
   signs by subtracting the smaller magnitude from the larger. *)
let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { sign = a.sign; mag = Nat.add a.mag b.mag }
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then { sign = a.sign; mag = Nat.sub a.mag b.mag }
    else { sign = b.sign; mag = Nat.sub b.mag a.mag }
  end

let sub a b = add a (neg b)
let succ t = add t one
let pred t = sub t one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else { sign = a.sign * b.sign; mag = Nat.mul a.mag b.mag }

let mul_int a v = mul a (of_int v)

(* Truncated division: quotient rounds toward zero, remainder takes the
   sign of the dividend (same convention as native [/] and [mod]). *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let q, r = Nat.divmod a.mag b.mag in
    let quot =
      if Nat.is_zero q then zero else { sign = a.sign * b.sign; mag = q }
    in
    let remd = if Nat.is_zero r then zero else { sign = a.sign; mag = r } in
    (quot, remd)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Euclidean division: remainder always in [0, |b|). *)
let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

let erem a b = snd (ediv_rem a b)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let shift_left t s =
  if t.sign = 0 then zero else { t with mag = Nat.shift_left t.mag s }

let shift_right t s =
  if t.sign = 0 then zero
  else begin
    let mag = Nat.shift_right t.mag s in
    if Nat.is_zero mag then zero else { t with mag }
  end

let of_bytes_be s = of_nat (Nat.of_bytes_be s)
let to_bytes_be t = Nat.to_bytes_be t.mag

(* Decimal I/O goes through chunks of 10^9 (the largest power of ten that
   fits a 31-bit limb), so conversion is O(limbs^2 / 9) rather than one
   division per digit. *)
let decimal_chunk = 1_000_000_000
let decimal_chunk_digits = 9

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if Nat.is_zero mag then acc
      else begin
        let q, r = Nat.divmod_limb mag decimal_chunk in
        chunks q (r :: acc)
      end
    in
    let parts = chunks t.mag [] in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match parts with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let to_string_hex t =
  let hex = Buffer.create 32 in
  if t.sign < 0 then Buffer.add_char hex '-';
  Buffer.add_string hex "0x";
  if t.sign = 0 then Buffer.add_char hex '0'
  else
    String.iteri
      (fun i c ->
        if i = 0 then Buffer.add_string hex (Printf.sprintf "%x" (Char.code c))
        else Buffer.add_string hex (Printf.sprintf "%02x" (Char.code c)))
      (Nat.to_bytes_be t.mag);
  Buffer.contents hex

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: sign only";
  let hex = len - start > 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X') in
  let mag =
    if hex then begin
      let acc = ref Nat.zero in
      for i = start + 2 to len - 1 do
        let c = s.[i] in
        if c <> '_' then begin
          let d =
            match c with
            | '0' .. '9' -> Char.code c - Char.code '0'
            | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
            | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
            | _ -> invalid_arg "Bigint.of_string: bad hex digit"
          in
          acc := Nat.add_int (Nat.shift_left !acc 4) d
        end
      done;
      !acc
    end
    else begin
      let acc = ref Nat.zero in
      let chunk = ref 0 and chunk_len = ref 0 in
      let flush () =
        if !chunk_len > 0 then begin
          let scale =
            let rec p n acc = if n = 0 then acc else p (n - 1) (acc * 10) in
            p !chunk_len 1
          in
          acc := Nat.add_int (Nat.mul_limb !acc scale) !chunk;
          chunk := 0;
          chunk_len := 0
        end
      in
      for i = start to len - 1 do
        let c = s.[i] in
        if c <> '_' then begin
          if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
          chunk := (!chunk * 10) + (Char.code c - Char.code '0');
          incr chunk_len;
          if !chunk_len = decimal_chunk_digits then flush ()
        end
      done;
      flush ();
      !acc
    end
  in
  if Nat.is_zero mag then zero else { sign = (if negative then -1 else 1); mag }

(* Integer square root by Newton iteration on the bit-length-based
   initial guess; converges in O(log bits) steps. *)
let isqrt t =
  if is_negative t then invalid_arg "Bigint.isqrt: negative argument";
  if is_zero t then zero
  else begin
    let initial = shift_left one ((num_bits t + 1) / 2) in
    let rec refine x =
      let x' = shift_right (add x (div t x)) 1 in
      if compare x' x < 0 then refine x' else x
    in
    refine initial
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
