(* Deterministic CSPRNG built on the ChaCha20 keystream.

   The state is a (key, nonce, counter) triple; each refill produces one
   64-byte block.  Seeding from /dev/urandom gives a production generator;
   seeding from a literal string gives reproducible streams for tests and
   benchmarks (the protocol's correctness is randomness-independent, so
   deterministic benches are both honest and repeatable). *)

open Ppst_bigint

type t = {
  key : Chacha20.key;
  nonce : Chacha20.nonce;
  mutable counter : int;
  mutable buffer : Bytes.t;
  mutable pos : int;
}

let of_seed_bytes seed =
  if String.length seed < 16 then
    invalid_arg "Secure_rng.of_seed_bytes: need at least 16 bytes of seed";
  (* Stretch an arbitrary-length seed into key || nonce with ChaCha itself:
     hash-like folding of the seed into a 44-byte pool. *)
  let pool = Bytes.make 44 '\000' in
  String.iteri
    (fun i c ->
      let j = i mod 44 in
      Bytes.set pool j (Char.chr (Char.code (Bytes.get pool j) lxor Char.code c lxor (i land 0xFF))))
    seed;
  (* One mixing round through the block function for diffusion. *)
  let k0 = Chacha20.key_of_string (Bytes.sub_string pool 0 32) in
  let n0 = Chacha20.nonce_of_string (Bytes.sub_string pool 32 12) in
  let mixed = Chacha20.block k0 n0 0 in
  {
    key = Chacha20.key_of_string (Bytes.sub_string mixed 0 32);
    nonce = Chacha20.nonce_of_string (Bytes.sub_string mixed 32 12);
    counter = 0;
    buffer = Bytes.create 0;
    pos = 0;
  }

let of_seed_string s =
  (* Pad short seeds; convenient for tests: [of_seed_string "test-42"]. *)
  let padded = if String.length s >= 16 then s else s ^ String.make (16 - String.length s) '#' in
  of_seed_bytes padded

let system () =
  let ic = open_in_bin "/dev/urandom" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_seed_bytes (really_input_string ic 48))

let refill t =
  t.buffer <- Chacha20.block t.key t.nonce t.counter;
  t.counter <- t.counter + 1;
  t.pos <- 0

let byte t =
  if t.pos >= Bytes.length t.buffer then refill t;
  let b = Char.code (Bytes.get t.buffer t.pos) in
  t.pos <- t.pos + 1;
  b

(* The next [n] keystream bytes, copied out of the buffer a block at a
   time into one fresh Bytes. *)
let take t n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if t.pos >= Bytes.length t.buffer then refill t;
    let k = Stdlib.min (n - !filled) (Bytes.length t.buffer - t.pos) in
    Bytes.blit t.buffer t.pos out !filled k;
    t.pos <- t.pos + k;
    filled := !filled + k
  done;
  out

let bytes t n = Bytes.unsafe_to_string (take t n)

(* The mask that keeps the low [nbits] of the [nbytes] bytes holding
   them, applied to the first, big-endian byte. *)
let top_mask ~nbytes nbits = 0xFF lsr ((nbytes * 8) - nbits)

let bits t nbits =
  if nbits <= 0 then invalid_arg "Secure_rng.bits: need positive bit count";
  let nbytes = (nbits + 7) / 8 in
  let buf = take t nbytes in
  Bytes.set buf 0 (Char.unsafe_chr (Char.code (Bytes.get buf 0) land top_mask ~nbytes nbits));
  Bigint.of_bytes_be (Bytes.unsafe_to_string buf)

(* Uniform in [0, bound) by rejection sampling on num_bits(bound) bits:
   acceptance probability > 1/2, so the expected draw count is < 2. *)
let below t bound =
  if Bigint.compare bound Bigint.zero <= 0 then
    invalid_arg "Secure_rng.below: bound must be positive";
  let nbits = Bigint.num_bits bound in
  let rec draw () =
    let v = bits t nbits in
    if Bigint.compare v bound < 0 then v else draw ()
  in
  draw ()

let in_range t ~lo ~hi =
  if Bigint.compare lo hi > 0 then invalid_arg "Secure_rng.in_range: lo > hi";
  Bigint.add lo (below t (Bigint.succ (Bigint.sub hi lo)))

(* [below] on a native int: the same bytes, mask and rejections, with no
   Bigint.  A bound below 2^62 needs at most 8 bytes, and the masked top
   byte keeps the value below 2^62. *)
let int t bound =
  if bound <= 0 then invalid_arg "Secure_rng.int: bound must be positive";
  let rec num_bits v = if v = 0 then 0 else 1 + num_bits (v lsr 1) in
  let nbits = num_bits bound in
  let nbytes = (nbits + 7) / 8 in
  let mask = top_mask ~nbytes nbits in
  let rec draw () =
    let v = ref (byte t land mask) in
    for _ = 2 to nbytes do
      v := (!v lsl 8) lor byte t
    done;
    if !v < bound then !v else draw ()
  in
  draw ()

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
