open Ppst_bigint

type public_key = {
  n : Bigint.t;
  n_squared : Bigint.t;
  g : Bigint.t;
  bits : int;
  ctx_n2 : Modular.ctx;
}

type private_key = {
  p : Bigint.t;
  q : Bigint.t;
  lambda : Bigint.t;
  mu : Bigint.t;
  public : public_key;
  crt : Montgomery.crt;
}

(* A ciphertext caches both representations of its residue mod n^2: the
   canonical Bigint (what the wire and decryption see) and the
   Montgomery form (what homomorphic chains multiply).  Each
   is realized at most once, on demand; homomorphic add/scalar_mul
   chains therefore stay in form end to end and only pay the one
   conversion at a wire or decrypt boundary.  Both representations
   denote the same unique residue, so results are byte-identical to the
   eager implementation.

   The caches are single-owner by protocol structure (a ciphertext is
   built, combined and serialized by one party's session thread; batch
   fan-outs only *read* already-realized fields), so no lock is
   needed. *)
type ciphertext = {
  key_n : Bigint.t;
  ctx : Modular.ctx;
  mutable value : Bigint.t option;
  mutable mont : Montgomery.elt option;
}

exception Invalid_plaintext of string
exception Invalid_ciphertext of string
exception Key_mismatch

let check_same_key pk c =
  if not (Bigint.equal pk.n c.key_n) then raise Key_mismatch

let ct_of_value pk v = { key_n = pk.n; ctx = pk.ctx_n2; value = Some v; mont = None }
let ct_of_mont pk m = { key_n = pk.n; ctx = pk.ctx_n2; value = None; mont = Some m }

let ct_mont c =
  match c.mont with
  | Some m -> m
  | None ->
    let m = Modular.to_mont_ctx c.ctx (Option.get c.value) in
    c.mont <- Some m;
    m

let ct_value c =
  match c.value with
  | Some v -> v
  | None ->
    let v = Modular.of_mont_ctx c.ctx (Option.get c.mont) in
    c.value <- Some v;
    v

let mont_n2 pk = Modular.mont_of_ctx pk.ctx_n2

(* L(x) = (x - 1) / n, defined on x = 1 mod n. *)
let l_function x n = Bigint.div (Bigint.pred x) n

let make_public n bits =
  let n_squared = Bigint.mul n n in
  { n; n_squared; g = Bigint.succ n; bits; ctx_n2 = Modular.make_ctx n_squared }

let public_of_modulus n ~bits =
  if Bigint.compare n Bigint.two <= 0 || Bigint.is_even n then
    raise (Invalid_plaintext "modulus must be an odd integer > 2");
  if Bigint.num_bits n <> bits then
    raise
      (Invalid_plaintext
         (Printf.sprintf "modulus has %d bits, expected %d" (Bigint.num_bits n) bits));
  make_public n bits

(* Assemble the full key material from validated primes. *)
let assemble p q =
  let n = Bigint.mul p q in
  let lambda = Modular.lcm (Bigint.pred p) (Bigint.pred q) in
  let public = make_public n (Bigint.num_bits n) in
  (* mu = (L(g^lambda mod n^2))^-1 mod n; with g = n+1,
     g^lambda = 1 + lambda*n mod n^2, so L(...) = lambda mod n. *)
  let mu = Modular.invert lambda n in
  (* CRT decryption constants (as in accelerated Paillier):
     hp = L_p(g^(p-1) mod p^2)^-1 mod p, and symmetrically hq.  With
     g = n+1, g^(p-1) = 1 + (p-1)n mod p^2, so L_p(...) = (p-1)q = -q
     mod p. *)
  let mag = Bigint.magnitude in
  let crt =
    Montgomery.crt_create ~p:(mag p) ~q:(mag q) ~n2:(mont_n2 public)
      ~hp:(mag (Modular.invert (Bigint.neg q) p))
      ~hq:(mag (Modular.invert (Bigint.neg p) q))
      ~p_inv_q:(mag (Modular.invert p q))
      ~p2_inv_q2:(mag (Modular.invert (Bigint.mul p p) (Bigint.mul q q)))
  in
  (public, { p; q; lambda; mu; public; crt })

let of_primes ~p ~q =
  if Bigint.compare p Bigint.two <= 0 || Bigint.compare q Bigint.two <= 0 then
    raise (Invalid_plaintext "primes must exceed 2");
  if Bigint.equal p q then raise (Invalid_plaintext "primes must be distinct");
  let p1 = Bigint.pred p and q1 = Bigint.pred q in
  let n = Bigint.mul p q in
  if not (Bigint.equal (Modular.gcd n (Bigint.mul p1 q1)) Bigint.one) then
    raise (Invalid_plaintext "gcd(pq, (p-1)(q-1)) must be 1");
  assemble p q

let keygen ?(bits = 64) rng =
  if bits < 16 then invalid_arg "Paillier.keygen: modulus below 16 bits";
  let half = bits / 2 in
  let random_bits b = Ppst_rng.Secure_rng.bits rng b in
  let rec gen () =
    let p = Prime.random_prime ~random_bits ~bits:half in
    let q = Prime.random_prime ~random_bits ~bits:(bits - half) in
    if Bigint.equal p q then gen ()
    else begin
      let n = Bigint.mul p q in
      let p1 = Bigint.pred p and q1 = Bigint.pred q in
      (* g = n+1 requires gcd(n, (p-1)(q-1)) = 1, which holds when neither
         prime divides the other's predecessor. *)
      if
        Bigint.num_bits n = bits
        && Bigint.equal (Modular.gcd n (Bigint.mul p1 q1)) Bigint.one
      then (p, q)
      else gen ()
    end
  in
  let p, q = gen () in
  assemble p q

let key_file_header = "ppst-paillier-v1"

let private_key_to_string sk =
  Printf.sprintf "%s\np=%s\nq=%s\n" key_file_header (Bigint.to_string sk.p)
    (Bigint.to_string sk.q)

let private_key_of_string text =
  let fail m = raise (Invalid_plaintext ("key parse: " ^ m)) in
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: rest when header = key_file_header ->
    let field name =
      let prefix = name ^ "=" in
      match
        List.find_opt
          (fun l -> String.length l > String.length prefix
                    && String.sub l 0 (String.length prefix) = prefix)
          rest
      with
      | Some l ->
        let v = String.sub l (String.length prefix) (String.length l - String.length prefix) in
        (try Bigint.of_string v with Invalid_argument m -> fail m)
      | None -> fail (Printf.sprintf "missing field %s" name)
    in
    let p = field "p" and q = field "q" in
    if not (Prime.is_probable_prime p) then fail "p is not prime";
    if not (Prime.is_probable_prime q) then fail "q is not prime";
    of_primes ~p ~q
  | _ -> fail "bad header"

let check_plaintext pk m =
  if Bigint.is_negative m || Bigint.compare m pk.n >= 0 then
    raise
      (Invalid_plaintext
         (Printf.sprintf "plaintext %s outside [0, n)" (Bigint.to_string m)))

(* Random r in [1, n) with gcd(r, n) = 1.  For honest keys a random unit
   fails coprimality with probability ~ 2/sqrt(n); we re-draw.  [is_unit]
   decides coprimality: a party with only n runs the binary GCD, the key
   holder [is_unit_sk].  Both accept exactly the same r, so the draws,
   and the transcripts, do not depend on which party encrypts. *)
let draw_unit pk rng is_unit =
  let rec draw () =
    let r = Ppst_rng.Secure_rng.below rng pk.n in
    if is_unit r then r else draw ()
  in
  draw ()

let random_unit pk rng = draw_unit pk rng (fun r -> Modular.coprime r pk.n)

(* For n = pq with p and q prime, gcd(v, n) = 1 exactly when neither
   prime divides v; the kernel folds v mod p and mod q.  Primality is
   the contract of [of_primes]. *)
let is_unit_sk sk v = Montgomery.crt_is_unit sk.crt (Bigint.magnitude v)

let random_unit_sk sk rng = draw_unit sk.public rng (is_unit_sk sk)

(* An r^n factor kept in Montgomery form, ready to multiply into a
   ciphertext without conversion. *)
type rn = Montgomery.elt

let rn_of_bigint pk v = Modular.to_mont_ctx pk.ctx_n2 v

(* r^n mod n^2 for a party with only n: one full-width power. *)
let rn_of_unit pk r =
  Montgomery.pow_of_nat (mont_n2 pk) (Bigint.magnitude r) (Bigint.magnitude pk.n)

(* r^n mod n^2 for the key holder: r^n modulo p^2 and q^2, recombined by
   Garner mod q^2.  Because n^2 = p^2 q^2 with gcd(p^2, q^2) = 1, the
   recombination is *exactly* r^n mod n^2, so the server-side encryption
   path stays byte-identical.  Each half is a Teichmüller lift:
   x -> x^p mod p^2 depends only on x mod p, so r^n = (r^q)^p mod p^2 is
   ((r mod p)^q mod p)^p mod p^2 — a half-width exponent mod p, then one
   mod p^2, where a direct power would take a full-width exponent mod
   p^2. *)
let rn_of_unit_sk sk r = Montgomery.crt_noise sk.crt (Bigint.magnitude r)

(* The one encryption step, g^m * r^n mod n^2 in Montgomery form, with
   g = n+1 so that g^m = 1 + m*n (m < n keeps it below n^2): every
   encryption path feeds it a realized noise factor.  Checking the
   plaintext is the caller's job, before any randomness is drawn. *)
let seal pk rn m =
  ct_of_mont pk
    (Montgomery.seal (mont_n2 pk) ~n:(Bigint.magnitude pk.n) (Bigint.magnitude m) rn)

let encrypt_with_rn pk ~rn m =
  check_plaintext pk m;
  seal pk rn m

let encrypt pk rng m =
  check_plaintext pk m;
  seal pk (rn_of_unit pk (random_unit pk rng)) m

let encrypt_sk sk rng m =
  let pk = sk.public in
  check_plaintext pk m;
  seal pk (rn_of_unit_sk sk (random_unit_sk sk rng)) m

let batch_buckets = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
let m_encrypt_batch =
  Ppst_telemetry.Metrics.histogram ~buckets:batch_buckets "paillier.batch.encrypt"
let m_decrypt_batch =
  Ppst_telemetry.Metrics.histogram ~buckets:batch_buckets "paillier.batch.decrypt"
let m_pool_refill =
  Ppst_telemetry.Metrics.histogram ~buckets:batch_buckets "paillier.pool.refill"
let m_pool_misses = Ppst_telemetry.Metrics.counter "paillier.pool.misses"

(* Batch encryption with the randomness pre-drawn sequentially: the rng
   is consumed in plaintext order exactly as a loop of [encrypt_sk] calls
   would, so seeded transcripts do not depend on the worker count.  Only
   the pure exponentiations fan out. *)
let encrypt_batch_sk ?(workers = Ppst_parallel.Pool.sequential) sk rng ms =
  let pk = sk.public in
  Ppst_telemetry.Metrics.observe m_encrypt_batch (float_of_int (Array.length ms));
  Array.iter (check_plaintext pk) ms;
  let rs = Array.map (fun _ -> random_unit_sk sk rng) ms in
  Ppst_parallel.Pool.map_array workers
    (fun (m, r) -> seal pk (rn_of_unit_sk sk r) m)
    (Array.map2 (fun m r -> (m, r)) ms rs)

(* Offline/online split (Paillier 1999, Section 6): the expensive factor
   r^n of a ciphertext is independent of the plaintext, so a party can
   precompute a pool of such factors while idle and encrypt online with
   two modular multiplications.  The protocol's client — the weak party in
   the paper's asymmetric setting — uses this for its masking offsets.

   The pool is a mutex-guarded FIFO: entries are consumed in production
   order, so a pooled run uses exactly the same r-sequence (per
   encryption) as an unpooled run drawing from the same rng, and
   transcripts match bit for bit. *)
type randomness_pool = {
  pool_n : Bigint.t;
  lock : Mutex.t;
  store : rn Queue.t;
  mutable misses : int;
}

let pool_create pk =
  { pool_n = pk.n; lock = Mutex.create (); store = Queue.create (); misses = 0 }

let pool_size pool =
  Mutex.lock pool.lock;
  let n = Queue.length pool.store in
  Mutex.unlock pool.lock;
  n

let pool_misses pool =
  Mutex.lock pool.lock;
  let n = pool.misses in
  Mutex.unlock pool.lock;
  n

let check_pool_key pk pool =
  if not (Bigint.equal pool.pool_n pk.n) then raise Key_mismatch

let pool_push_all pool rns =
  Mutex.lock pool.lock;
  Array.iter (fun rn -> Queue.add rn pool.store) rns;
  Mutex.unlock pool.lock

let pool_refill ?(workers = Ppst_parallel.Pool.sequential) pk pool rng count =
  check_pool_key pk pool;
  Ppst_telemetry.Metrics.observe m_pool_refill (float_of_int count);
  (* Draw the units sequentially (rng order independent of worker count),
     exponentiate in parallel, then enqueue in draw order — consumers see
     factors exactly in the order the units were drawn. *)
  let rs = Array.init count (fun _ -> random_unit pk rng) in
  pool_push_all pool (Ppst_parallel.Pool.map_array workers (rn_of_unit pk) rs)

(* Subgroup noise: draw one unit h, set hn = h^n, and produce factors
   hn^a for short random exponents a of bits/2 + 64 bits through a
   fixed-base table — ~bits/(2w) multiplications per factor instead of
   a full-width ladder, an order of magnitude cheaper.  The factors are
   n-th residues drawn from the cyclic subgroup <h^n> rather than
   uniformly from all n-th residues, so only the packed profile opts in;
   see SECURITY.md.  This generator is the only code that draws h,
   builds the table or draws exponents: the fast refill and the server's
   packed replies both take their noise from it. *)
type noise_gen = { gen_n : Bigint.t; gen_table : Fixed_base.t; gen_ebits : int }

let noise_gen_create pk rng =
  let h = random_unit pk rng in
  let hn = Modular.of_mont_ctx pk.ctx_n2 (rn_of_unit pk h) in
  let gen_ebits = (pk.bits / 2) + 64 in
  { gen_n = pk.n; gen_table = Fixed_base.create pk.ctx_n2 ~max_bits:gen_ebits hn; gen_ebits }

(* A factor's exponent draw is its stateful half; the table walk is pure,
   so a refill can fan it out. *)
let noise_exponent g rng = Ppst_rng.Secure_rng.bits rng g.gen_ebits
let noise_power g a : rn = Fixed_base.pow_raw g.gen_table a

let noise_gen_rn g pk rng =
  if not (Bigint.equal g.gen_n pk.n) then
    invalid_arg "Paillier.noise_gen_rn: generator belongs to a different key";
  noise_power g (noise_exponent g rng)

let pool_refill_fast ?(workers = Ppst_parallel.Pool.sequential) pk pool rng count =
  check_pool_key pk pool;
  Ppst_telemetry.Metrics.observe m_pool_refill (float_of_int count);
  let g = noise_gen_create pk rng in
  let exps = Array.init count (fun _ -> noise_exponent g rng) in
  pool_push_all pool (Ppst_parallel.Pool.map_array workers (noise_power g) exps)

(* A unit of encryption randomness: either a precomputed [r^n] factor
   popped from the pool, or — on a pool miss — a raw unit [r] whose
   exponentiation is still owed.  Splitting acquisition (sequential,
   consumes rng/pool state) from realization (pure, parallelizable) lets
   the client fan out its masking encryptions deterministically. *)
type rn_source = Pooled of rn | Owed of Bigint.t

let rn_acquire pk pool rng =
  check_pool_key pk pool;
  Mutex.lock pool.lock;
  match Queue.take_opt pool.store with
  | Some rn ->
    Mutex.unlock pool.lock;
    Pooled rn
  | None ->
    pool.misses <- pool.misses + 1;
    let r = random_unit pk rng in
    Mutex.unlock pool.lock;
    Ppst_telemetry.Metrics.incr m_pool_misses;
    Owed r

let rn_realize pk = function
  | Pooled rn -> rn
  | Owed r -> rn_of_unit pk r

let encrypt_pooled pk pool rng m =
  check_plaintext pk m;
  seal pk (rn_realize pk (rn_acquire pk pool rng)) m

let decrypt sk c =
  let pk = sk.public in
  check_same_key pk c;
  let x = Modular.pow_ctx pk.ctx_n2 (ct_value c) sk.lambda in
  Bigint.erem (Bigint.mul (l_function x pk.n) sk.mu) pk.n

(* CRT decryption (Paillier 1999, Section 7), one kernel call: half-size
   powers mod p^2 and q^2, L by exact division, recombined by Garner.
   A non-unit fails the exact division. *)
let decrypt_crt sk c =
  check_same_key sk.public c;
  match Montgomery.crt_decrypt sk.crt (Bigint.magnitude (ct_value c)) with
  | Some m -> Bigint.of_nat m
  | None -> raise (Invalid_ciphertext "ciphertext is not a unit mod n^2")

(* Decryption is pure per ciphertext once the canonical value is
   realized, so batches fan out unchanged — [ct_value] runs before the
   fan-out so workers never race on the caches. *)
let batch_decrypt decrypt ?(workers = Ppst_parallel.Pool.sequential) sk cs =
  Ppst_telemetry.Metrics.observe m_decrypt_batch (float_of_int (Array.length cs));
  Array.iter
    (fun c ->
      check_same_key sk.public c;
      ignore (ct_value c))
    cs;
  Ppst_parallel.Pool.map_array workers (decrypt sk) cs

let decrypt_batch = batch_decrypt decrypt
let decrypt_crt_batch = batch_decrypt decrypt_crt

let add pk c1 c2 =
  check_same_key pk c1;
  check_same_key pk c2;
  ct_of_mont pk (Montgomery.mont_mul_raw (mont_n2 pk) (ct_mont c1) (ct_mont c2))

let add_plain pk c k =
  check_same_key pk c;
  seal pk (ct_mont c) (Bigint.erem k pk.n)

let scalar_mul pk c k =
  check_same_key pk c;
  let k = Bigint.erem k pk.n in
  ct_of_mont pk (Montgomery.pow_raw (mont_n2 pk) (ct_mont c) (Bigint.magnitude k))

(* Homomorphic negation by modular inverse: Enc(m)^-1 = Enc(-m) with
   inverted randomness.  Same plaintext as [scalar_mul] by -1 (a full
   n-1 power) but one binary inverse mod n^2 instead of a full-width
   ladder — the packed fast path inverts the server's coordinate
   ciphertexts once and then raises them to *small* positive exponents.
   Ciphertext bytes differ from [scalar_mul]'s, so this lives on the
   packed (distance-compared) path only. *)
let invert_ciphertext pk c =
  check_same_key pk c;
  ct_of_value pk (Modular.invert (ct_value c) pk.n_squared)

(* Plaintext packing: k values of at most [slot_bits] bits ride one
   ciphertext as sum_j v_j 2^(j*slot_bits), leaving the top bit of n as
   headroom so the packed sum never wraps mod n.  Packing encrypted
   slots uses Horner's rule in Montgomery form — slot_bits squarings and
   one multiplication per slot — so a pack of k candidates costs far
   less than one fresh encryption, and the server pays ONE decryption
   exponent for all k. *)
let pack_capacity pk ~slot_bits =
  if slot_bits < 1 then invalid_arg "Paillier.pack_capacity: slot_bits < 1";
  (pk.bits - 1) / slot_bits

let check_slot ~slot_bits v =
  if Bigint.is_negative v || Bigint.num_bits v > slot_bits then
    raise
      (Invalid_plaintext
         (Printf.sprintf "packed slot outside [0, 2^%d)" slot_bits))

let pack_plain pk ~slot_bits values =
  let k = Array.length values in
  if k = 0 || k > pack_capacity pk ~slot_bits then
    invalid_arg "Paillier.pack_plain: slot count outside [1, capacity]";
  Array.iter (check_slot ~slot_bits) values;
  let acc = ref Bigint.zero in
  for j = k - 1 downto 0 do
    acc := Bigint.add (Bigint.shift_left !acc slot_bits) values.(j)
  done;
  !acc

let unpack_plain ~slot_bits ~count packed =
  if slot_bits < 1 || count < 0 then invalid_arg "Paillier.unpack_plain";
  let slot_mod = Bigint.shift_left Bigint.one slot_bits in
  Array.init count (fun j ->
      Bigint.erem (Bigint.shift_right packed (j * slot_bits)) slot_mod)

let pack_ciphertexts pk ~slot_bits cts =
  let k = Array.length cts in
  if k = 0 || k > pack_capacity pk ~slot_bits then
    invalid_arg "Paillier.pack_ciphertexts: slot count outside [1, capacity]";
  Array.iter (check_same_key pk) cts;
  let mont = mont_n2 pk in
  (* Horner from the top slot: acc <- acc^(2^slot_bits) * ct_j. *)
  let acc = ref (ct_mont cts.(k - 1)) in
  for j = k - 2 downto 0 do
    for _ = 1 to slot_bits do
      acc := Montgomery.mont_mul_raw mont !acc !acc
    done;
    acc := Montgomery.mont_mul_raw mont !acc (ct_mont cts.(j))
  done;
  ct_of_mont pk !acc

let ciphertext_to_bigint c = ct_value c

let ciphertext_of_bigint pk v =
  if Bigint.is_negative v || Bigint.compare v pk.n_squared >= 0 then
    raise (Invalid_plaintext "ciphertext value outside [0, n^2)");
  ct_of_value pk v

let m_invalid_ciphertext =
  Ppst_telemetry.Metrics.counter "paillier.invalid_ciphertext"

(* Strict validation for hostile-input boundaries (the server's decrypt
   path): a valid Paillier ciphertext is a unit of Z_{n^2}, i.e.
   c in [1, n^2-1] with gcd(c, n) = 1.  0, multiples of p or q, and
   out-of-range values are not ciphertexts — decrypting them yields
   nonsense (or, for non-units, a value whose gcd with n factors the
   modulus), so they must be rejected as typed garbage before a single
   CRT exponentiation runs.  Whether v is a unit is decided by folding
   it mod p and mod q (is_unit_sk). *)
let validate_ciphertext sk v =
  let pk = sk.public in
  let invalid msg =
    Ppst_telemetry.Metrics.incr m_invalid_ciphertext;
    raise (Invalid_ciphertext msg)
  in
  if Bigint.is_negative v || Bigint.equal v Bigint.zero then
    invalid "ciphertext outside [1, n^2-1]";
  if Bigint.compare v pk.n_squared >= 0 then
    invalid "ciphertext outside [1, n^2-1]";
  if not (is_unit_sk sk v) then invalid "ciphertext is not a unit mod n^2";
  ct_of_value pk v

let equal_ciphertext a b =
  Bigint.equal a.key_n b.key_n && Bigint.equal (ct_value a) (ct_value b)
