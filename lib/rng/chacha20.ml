(* ChaCha20 block function (RFC 8439), used as the core of the CSPRNG in
   {!Secure_rng}.  32-bit words are stored in native ints masked to 32
   bits; OCaml's 63-bit ints make this safe without Int32 boxing. *)

let mask32 = 0xFFFFFFFF

let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* "expand 32-byte k" *)
let sigma = [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |]

type key = int array (* 8 words *)
type nonce = int array (* 3 words *)

let word_of_bytes_le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let key_of_string s : key =
  if String.length s <> 32 then invalid_arg "Chacha20.key_of_string: need 32 bytes";
  Array.init 8 (fun i -> word_of_bytes_le s (4 * i))

let nonce_of_string s : nonce =
  if String.length s <> 12 then invalid_arg "Chacha20.nonce_of_string: need 12 bytes";
  Array.init 3 (fun i -> word_of_bytes_le s (4 * i))

(* One 64-byte keystream block for the given counter value.  The
   sixteen state words are local refs, which the compiler keeps out of
   the heap; [i0]..[i15] are the input words added back at the end. *)
let block (key : key) (nonce : nonce) (counter : int) : Bytes.t =
  let i0 = sigma.(0) and i1 = sigma.(1) and i2 = sigma.(2) and i3 = sigma.(3) in
  let i4 = key.(0) and i5 = key.(1) and i6 = key.(2) and i7 = key.(3) in
  let i8 = key.(4) and i9 = key.(5) and i10 = key.(6) and i11 = key.(7) in
  let i12 = counter land mask32 in
  let i13 = nonce.(0) and i14 = nonce.(1) and i15 = nonce.(2) in
  let x0 = ref i0 and x1 = ref i1 and x2 = ref i2 and x3 = ref i3 in
  let x4 = ref i4 and x5 = ref i5 and x6 = ref i6 and x7 = ref i7 in
  let x8 = ref i8 and x9 = ref i9 and x10 = ref i10 and x11 = ref i11 in
  let x12 = ref i12 and x13 = ref i13 and x14 = ref i14 and x15 = ref i15 in
  for _ = 1 to 10 do
    (* column rounds *)
    x0 := (!x0 + !x4) land mask32; x12 := rotl32 (!x12 lxor !x0) 16;
    x8 := (!x8 + !x12) land mask32; x4 := rotl32 (!x4 lxor !x8) 12;
    x0 := (!x0 + !x4) land mask32; x12 := rotl32 (!x12 lxor !x0) 8;
    x8 := (!x8 + !x12) land mask32; x4 := rotl32 (!x4 lxor !x8) 7;
    x1 := (!x1 + !x5) land mask32; x13 := rotl32 (!x13 lxor !x1) 16;
    x9 := (!x9 + !x13) land mask32; x5 := rotl32 (!x5 lxor !x9) 12;
    x1 := (!x1 + !x5) land mask32; x13 := rotl32 (!x13 lxor !x1) 8;
    x9 := (!x9 + !x13) land mask32; x5 := rotl32 (!x5 lxor !x9) 7;
    x2 := (!x2 + !x6) land mask32; x14 := rotl32 (!x14 lxor !x2) 16;
    x10 := (!x10 + !x14) land mask32; x6 := rotl32 (!x6 lxor !x10) 12;
    x2 := (!x2 + !x6) land mask32; x14 := rotl32 (!x14 lxor !x2) 8;
    x10 := (!x10 + !x14) land mask32; x6 := rotl32 (!x6 lxor !x10) 7;
    x3 := (!x3 + !x7) land mask32; x15 := rotl32 (!x15 lxor !x3) 16;
    x11 := (!x11 + !x15) land mask32; x7 := rotl32 (!x7 lxor !x11) 12;
    x3 := (!x3 + !x7) land mask32; x15 := rotl32 (!x15 lxor !x3) 8;
    x11 := (!x11 + !x15) land mask32; x7 := rotl32 (!x7 lxor !x11) 7;
    (* diagonal rounds *)
    x0 := (!x0 + !x5) land mask32; x15 := rotl32 (!x15 lxor !x0) 16;
    x10 := (!x10 + !x15) land mask32; x5 := rotl32 (!x5 lxor !x10) 12;
    x0 := (!x0 + !x5) land mask32; x15 := rotl32 (!x15 lxor !x0) 8;
    x10 := (!x10 + !x15) land mask32; x5 := rotl32 (!x5 lxor !x10) 7;
    x1 := (!x1 + !x6) land mask32; x12 := rotl32 (!x12 lxor !x1) 16;
    x11 := (!x11 + !x12) land mask32; x6 := rotl32 (!x6 lxor !x11) 12;
    x1 := (!x1 + !x6) land mask32; x12 := rotl32 (!x12 lxor !x1) 8;
    x11 := (!x11 + !x12) land mask32; x6 := rotl32 (!x6 lxor !x11) 7;
    x2 := (!x2 + !x7) land mask32; x13 := rotl32 (!x13 lxor !x2) 16;
    x8 := (!x8 + !x13) land mask32; x7 := rotl32 (!x7 lxor !x8) 12;
    x2 := (!x2 + !x7) land mask32; x13 := rotl32 (!x13 lxor !x2) 8;
    x8 := (!x8 + !x13) land mask32; x7 := rotl32 (!x7 lxor !x8) 7;
    x3 := (!x3 + !x4) land mask32; x14 := rotl32 (!x14 lxor !x3) 16;
    x9 := (!x9 + !x14) land mask32; x4 := rotl32 (!x4 lxor !x9) 12;
    x3 := (!x3 + !x4) land mask32; x14 := rotl32 (!x14 lxor !x3) 8;
    x9 := (!x9 + !x14) land mask32; x4 := rotl32 (!x4 lxor !x9) 7;
  done;
  let out = Bytes.create 64 in
  let put i w = Bytes.set_int32_le out (4 * i) (Int32.of_int (w land mask32)) in
  put 0 (!x0 + i0); put 1 (!x1 + i1); put 2 (!x2 + i2); put 3 (!x3 + i3);
  put 4 (!x4 + i4); put 5 (!x5 + i5); put 6 (!x6 + i6); put 7 (!x7 + i7);
  put 8 (!x8 + i8); put 9 (!x9 + i9); put 10 (!x10 + i10); put 11 (!x11 + i11);
  put 12 (!x12 + i12); put 13 (!x13 + i13); put 14 (!x14 + i14); put 15 (!x15 + i15);
  out
