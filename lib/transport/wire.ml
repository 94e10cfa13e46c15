exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

type writer = Buffer.t

let writer () = Buffer.create 256

let put_u8 w v =
  if v < 0 || v > 0xFF then invalid_arg "Wire.put_u8: out of range";
  Buffer.add_char w (Char.chr v)

let put_u32 w v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.put_u32: out of range";
  Buffer.add_int32_be w (Int32.of_int v)

let put_bytes w s =
  put_u32 w (String.length s);
  Buffer.add_string w s

(* IEEE-754 double as 8 big-endian bytes (its Int64 bit pattern). *)
let put_f64 w v = Buffer.add_int64_be w (Int64.bits_of_float v)

let put_bigint w v =
  let open Ppst_bigint in
  let sign_byte =
    match Bigint.sign v with 0 -> 0 | 1 -> 1 | _ -> 2
  in
  put_u8 w sign_byte;
  put_bytes w (Bigint.to_bytes_be v)

let put_bigint_array w arr =
  put_u32 w (Array.length arr);
  Array.iter (put_bigint w) arr

let contents = Buffer.contents

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let need r n =
  if r.pos + n > String.length r.data then
    malformed "truncated frame: need %d bytes at offset %d of %d" n r.pos
      (String.length r.data)

let get_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let u32_at s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF

let get_u32 r =
  need r 4;
  let v = u32_at r.data r.pos in
  r.pos <- r.pos + 4;
  v

let get_f64 r =
  need r 8;
  let bits = String.get_int64_be r.data r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits bits

let get_bytes r =
  let len = get_u32 r in
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let get_bigint r =
  let open Ppst_bigint in
  let sign_byte = get_u8 r in
  let mag = Bigint.of_bytes_be (get_bytes r) in
  match sign_byte with
  | 0 ->
    if not (Bigint.is_zero mag) then malformed "zero sign with non-zero magnitude";
    Bigint.zero
  | 1 ->
    if Bigint.is_zero mag then malformed "positive sign with zero magnitude";
    mag
  | 2 ->
    if Bigint.is_zero mag then malformed "negative sign with zero magnitude";
    Bigint.neg mag
  | b -> malformed "bad sign byte %d" b

let get_bigint_array r =
  let n = get_u32 r in
  (* Cap pre-allocation by what the frame could possibly hold (each entry
     is at least 6 bytes) so a forged count cannot trigger a huge alloc. *)
  if n * 6 > String.length r.data - r.pos then
    malformed "array count %d exceeds frame capacity" n;
  Array.init n (fun _ -> get_bigint r)

let remaining r = String.length r.data - r.pos

let expect_end r =
  if remaining r <> 0 then malformed "%d trailing bytes in frame" (remaining r)
