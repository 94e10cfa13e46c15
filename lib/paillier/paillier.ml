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
  p_squared : Bigint.t;
  q_squared : Bigint.t;
  hp : Bigint.t;
  hq : Bigint.t;
  p_inv_mod_q : Bigint.t;
  p2_inv_mod_q2 : Bigint.t;
  ctx_p2 : Modular.ctx;
  ctx_q2 : Modular.ctx;
}

(* A ciphertext caches both representations of its residue mod n^2: the
   canonical Bigint (what the wire and decryption see) and the
   Montgomery-form limb vector (what homomorphic chains multiply).  Each
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
  mutable mont : int array option;
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
  {
    n;
    n_squared = Bigint.mul n n;
    g = Bigint.succ n;
    bits;
    ctx_n2 = Modular.make_ctx (Bigint.mul n n);
  }

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
  let p1 = Bigint.pred p and q1 = Bigint.pred q in
  let lambda = Modular.lcm p1 q1 in
  let public = make_public n (Bigint.num_bits n) in
  (* mu = (L(g^lambda mod n^2))^-1 mod n; with g = n+1,
     g^lambda = 1 + lambda*n mod n^2, so L(...) = lambda mod n. *)
  let mu = Modular.invert lambda n in
  let p_squared = Bigint.mul p p in
  let q_squared = Bigint.mul q q in
  (* CRT decryption constants (as in accelerated Paillier):
     hp = L_p(g^{p-1} mod p^2)^-1 mod p, and symmetrically hq. *)
  let lp x = Bigint.div (Bigint.pred x) p in
  let lq x = Bigint.div (Bigint.pred x) q in
  let g = public.g in
  let ctx_p2 = Modular.make_ctx p_squared in
  let ctx_q2 = Modular.make_ctx q_squared in
  let hp = Modular.invert (lp (Modular.pow_ctx ctx_p2 g p1)) p in
  let hq = Modular.invert (lq (Modular.pow_ctx ctx_q2 g q1)) q in
  let p_inv_mod_q = Modular.invert p q in
  let p2_inv_mod_q2 = Modular.invert p_squared q_squared in
  ( public,
    {
      p; q; lambda; mu; public; p_squared; q_squared; hp; hq; p_inv_mod_q;
      p2_inv_mod_q2; ctx_p2; ctx_q2;
    } )

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
   fails coprimality with probability ~ 2/sqrt(n); we re-draw. *)
let random_unit pk rng =
  let rec draw () =
    let r = Ppst_rng.Secure_rng.below rng pk.n in
    if Bigint.is_zero r then draw ()
    else if Bigint.equal (Modular.gcd r pk.n) Bigint.one then r
    else draw ()
  in
  draw ()

(* With g = n+1: g^m = 1 + m*n (mod n^2), avoiding one exponentiation. *)
let g_pow_m pk m = Bigint.erem (Bigint.succ (Bigint.mul m pk.n)) pk.n_squared

let fresh_rn pk rng =
  let r = random_unit pk rng in
  Modular.pow_ctx pk.ctx_n2 r pk.n

(* r^n mod n^2 for the key holder: exponentiate modulo p^2 and q^2
   (half-size Montgomery contexts, ~4x cheaper per multiplication) and
   recombine by Garner with the precomputed (p^2)^-1 mod q^2.  Because
   n^2 = p^2 q^2 with gcd(p^2, q^2) = 1, the recombination is *exactly*
   r^n mod n^2 — the server-side encryption path stays byte-identical
   while paying roughly half the multiplication work. *)
let fresh_rn_sk sk r =
  let n = sk.public.n in
  let rp = Modular.pow_ctx sk.ctx_p2 r n in
  let rq = Modular.pow_ctx sk.ctx_q2 r n in
  let diff = Bigint.erem (Bigint.sub rq rp) sk.q_squared in
  let h = Modular.mul_ctx sk.ctx_q2 diff sk.p2_inv_mod_q2 in
  Bigint.erem (Bigint.add rp (Bigint.mul sk.p_squared h)) sk.public.n_squared

let encrypt pk rng m =
  check_plaintext pk m;
  ct_of_value pk (Modular.mul_ctx pk.ctx_n2 (g_pow_m pk m) (fresh_rn pk rng))

let encrypt_sk sk rng m =
  let pk = sk.public in
  check_plaintext pk m;
  let r = random_unit pk rng in
  ct_of_value pk (Modular.mul_ctx pk.ctx_n2 (g_pow_m pk m) (fresh_rn_sk sk r))

(* Batch encryption with the randomness pre-drawn sequentially: the rng
   is consumed in plaintext order exactly as a loop of [encrypt] calls
   would, so seeded transcripts do not depend on the worker count.  Only
   the pure exponentiations fan out. *)
let batch_buckets = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
let m_encrypt_batch =
  Ppst_telemetry.Metrics.histogram ~buckets:batch_buckets "paillier.batch.encrypt"
let m_decrypt_batch =
  Ppst_telemetry.Metrics.histogram ~buckets:batch_buckets "paillier.batch.decrypt"
let m_pool_refill =
  Ppst_telemetry.Metrics.histogram ~buckets:batch_buckets "paillier.pool.refill"
let m_pool_misses = Ppst_telemetry.Metrics.counter "paillier.pool.misses"

let encrypt_batch ?(workers = Ppst_parallel.Pool.sequential) pk rng ms =
  Ppst_telemetry.Metrics.observe m_encrypt_batch (float_of_int (Array.length ms));
  Array.iter (check_plaintext pk) ms;
  let rs = Array.map (fun _ -> random_unit pk rng) ms in
  Ppst_parallel.Pool.map_array workers
    (fun (m, r) ->
      let rn = Modular.pow_ctx pk.ctx_n2 r pk.n in
      ct_of_value pk (Modular.mul_ctx pk.ctx_n2 (g_pow_m pk m) rn))
    (Array.map2 (fun m r -> (m, r)) ms rs)

let encrypt_batch_sk ?(workers = Ppst_parallel.Pool.sequential) sk rng ms =
  let pk = sk.public in
  Ppst_telemetry.Metrics.observe m_encrypt_batch (float_of_int (Array.length ms));
  Array.iter (check_plaintext pk) ms;
  let rs = Array.map (fun _ -> random_unit pk rng) ms in
  Ppst_parallel.Pool.map_array workers
    (fun (m, r) ->
      ct_of_value pk (Modular.mul_ctx pk.ctx_n2 (g_pow_m pk m) (fresh_rn_sk sk r)))
    (Array.map2 (fun m r -> (m, r)) ms rs)

(* Offline/online split (Paillier 1999, Section 6): the expensive factor
   r^n of a ciphertext is independent of the plaintext, so a party can
   precompute a pool of such factors while idle and encrypt online with
   two modular multiplications.  The protocol's client — the weak party in
   the paper's asymmetric setting — uses this for its masking offsets.

   The pool is a mutex-guarded FIFO: entries are consumed in production
   order, so a pooled run uses exactly the same r-sequence (per
   encryption) as an unpooled run drawing from the same rng, and
   transcripts match bit for bit.  [pending] counts entries promised by
   an in-flight background producer; consumers block (rather than miss)
   while production is still catching up. *)

(* An r^n factor kept in Montgomery form, ready to multiply into a
   ciphertext without conversion. *)
type rn = int array

let rn_mont_of_unit pk r =
  Montgomery.pow_raw (mont_n2 pk)
    (Modular.to_mont_ctx pk.ctx_n2 r)
    (Bigint.magnitude pk.n)

let rn_of_bigint pk v = Modular.to_mont_ctx pk.ctx_n2 v

type randomness_pool = {
  pool_n : Bigint.t;
  lock : Mutex.t;
  changed : Condition.t;
  store : rn Queue.t;
  mutable pending : int;
  mutable misses : int;
}

let pool_create pk =
  {
    pool_n = pk.n;
    lock = Mutex.create ();
    changed = Condition.create ();
    store = Queue.create ();
    pending = 0;
    misses = 0;
  }

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
  Condition.broadcast pool.changed;
  Mutex.unlock pool.lock

let pool_refill ?(workers = Ppst_parallel.Pool.sequential) pk pool rng count =
  check_pool_key pk pool;
  Ppst_telemetry.Metrics.observe m_pool_refill (float_of_int count);
  (* Draw the units sequentially (rng order independent of worker count),
     exponentiate in parallel, then enqueue in draw order — consumers see
     factors exactly in the order the units were drawn. *)
  let rs = Array.init count (fun _ -> random_unit pk rng) in
  let rns = Ppst_parallel.Pool.map_array workers (rn_mont_of_unit pk) rs in
  pool_push_all pool rns

(* Fast refill via a noise subgroup: draw one unit h, set hn = h^n, and
   produce entries hn^a for short random exponents a of bits/2 + 64
   bits through a fixed-base table — ~bits/(2w) multiplications per
   entry instead of a full-width ladder, an order of magnitude cheaper.
   The entries are n-th residues drawn from the cyclic subgroup <h^n>
   rather than uniformly from all n-th residues, so this profile is an
   explicit opt-in (the packed/fast protocol profile); see SECURITY.md. *)
let fast_exponent_bits pk = (pk.bits / 2) + 64

let pool_refill_fast ?(workers = Ppst_parallel.Pool.sequential) pk pool rng count =
  check_pool_key pk pool;
  Ppst_telemetry.Metrics.observe m_pool_refill (float_of_int count);
  let h = random_unit pk rng in
  let hn = Modular.of_mont_ctx pk.ctx_n2 (rn_mont_of_unit pk h) in
  let ebits = fast_exponent_bits pk in
  let table = Fixed_base.create pk.ctx_n2 ~max_bits:ebits hn in
  let exps = Array.init count (fun _ -> Ppst_rng.Secure_rng.bits rng ebits) in
  let rns = Ppst_parallel.Pool.map_array workers (Fixed_base.pow_raw table) exps in
  pool_push_all pool rns

(* A cached fast-noise generator: the subgroup table of [pool_refill_fast]
   hoisted into a value, for peers (the server's packed-reply
   re-encryptions) that need a stream of cheap noise factors across many
   requests without a pool.  Same subgroup caveat as the fast refill. *)
type noise_gen = { gen_n : Bigint.t; gen_table : Fixed_base.t; gen_ebits : int }

let noise_gen_create pk rng =
  let h = random_unit pk rng in
  let hn = Modular.of_mont_ctx pk.ctx_n2 (rn_mont_of_unit pk h) in
  let gen_ebits = fast_exponent_bits pk in
  { gen_n = pk.n; gen_table = Fixed_base.create pk.ctx_n2 ~max_bits:gen_ebits hn; gen_ebits }

let noise_gen_rn g pk rng : rn =
  if not (Bigint.equal g.gen_n pk.n) then
    invalid_arg "Paillier.noise_gen_rn: generator belongs to a different key";
  Fixed_base.pow_raw g.gen_table (Ppst_rng.Secure_rng.bits rng g.gen_ebits)

(* Background production on a dedicated Domain.  The producer owns [rng]
   until the returned join completes: it draws every unit itself, in
   order, so determinism is preserved; consumers block in [rn_acquire]
   while [pending] entries are still owed instead of falling back to an
   online exponentiation. *)
let pool_refill_async ?(fast = false) pk pool rng count =
  check_pool_key pk pool;
  Ppst_telemetry.Metrics.observe m_pool_refill (float_of_int count);
  Mutex.lock pool.lock;
  pool.pending <- pool.pending + count;
  Mutex.unlock pool.lock;
  let push rn =
    Mutex.lock pool.lock;
    Queue.add rn pool.store;
    pool.pending <- pool.pending - 1;
    Condition.broadcast pool.changed;
    Mutex.unlock pool.lock
  in
  let abandon k =
    (* Producer died: un-promise the entries it still owed so consumers
       fall back to online exponentiation instead of blocking forever. *)
    Mutex.lock pool.lock;
    pool.pending <- pool.pending - k;
    Condition.broadcast pool.changed;
    Mutex.unlock pool.lock
  in
  let produce () =
    let produced = ref 0 in
    (try
       if fast then begin
         let h = random_unit pk rng in
         let hn = Modular.of_mont_ctx pk.ctx_n2 (rn_mont_of_unit pk h) in
         let ebits = fast_exponent_bits pk in
         let table = Fixed_base.create pk.ctx_n2 ~max_bits:ebits hn in
         for _ = 1 to count do
           let a = Ppst_rng.Secure_rng.bits rng ebits in
           push (Fixed_base.pow_raw table a);
           incr produced
         done
       end
       else
         for _ = 1 to count do
           push (rn_mont_of_unit pk (random_unit pk rng));
           incr produced
         done
     with e ->
       abandon (count - !produced);
       raise e)
  in
  let task = Ppst_parallel.Pool.background produce in
  fun () -> Ppst_parallel.Pool.await task

(* A unit of encryption randomness: either a precomputed [r^n] factor
   popped from the pool, or — on a pool miss — a raw unit [r] whose
   exponentiation is still owed.  Splitting acquisition (sequential,
   consumes rng/pool state) from realization (pure, parallelizable) lets
   the client fan out its masking encryptions deterministically. *)
type rn_source = Pooled of rn | Owed of Bigint.t

let rn_acquire pk pool rng =
  check_pool_key pk pool;
  Mutex.lock pool.lock;
  while Queue.is_empty pool.store && pool.pending > 0 do
    Condition.wait pool.changed pool.lock
  done;
  match Queue.take_opt pool.store with
  | Some rn ->
    Mutex.unlock pool.lock;
    Pooled rn
  | None ->
    pool.misses <- pool.misses + 1;
    (* The rng is free here: misses only happen once no producer is
       pending, i.e. after the producer's final draw. *)
    let r = random_unit pk rng in
    Mutex.unlock pool.lock;
    Ppst_telemetry.Metrics.incr m_pool_misses;
    Owed r

let rn_realize pk = function
  | Pooled rn -> rn
  | Owed r -> rn_mont_of_unit pk r

let encrypt_with_rn pk ~(rn : rn) m =
  check_plaintext pk m;
  let gm = Modular.to_mont_ctx pk.ctx_n2 (g_pow_m pk m) in
  ct_of_mont pk (Montgomery.mont_mul_raw (mont_n2 pk) gm rn)

let encrypt_pooled pk pool rng m =
  check_plaintext pk m;
  let rn = rn_realize pk (rn_acquire pk pool rng) in
  encrypt_with_rn pk ~rn m

let encrypt_zero pk rng = encrypt pk rng Bigint.zero

let decrypt sk c =
  let pk = sk.public in
  check_same_key pk c;
  let x = Modular.pow_ctx pk.ctx_n2 (ct_value c) sk.lambda in
  Bigint.erem (Bigint.mul (l_function x pk.n) sk.mu) pk.n

(* CRT decryption: decrypt mod p and mod q separately with half-size
   exponentiations, then recombine. *)
let decrypt_crt sk c =
  let pk = sk.public in
  check_same_key pk c;
  let v = ct_value c in
  let p1 = Bigint.pred sk.p and q1 = Bigint.pred sk.q in
  let cp = Bigint.erem v sk.p_squared in
  let cq = Bigint.erem v sk.q_squared in
  let lp x = Bigint.div (Bigint.pred x) sk.p in
  let lq x = Bigint.div (Bigint.pred x) sk.q in
  let mp = Bigint.erem (Bigint.mul (lp (Modular.pow_ctx sk.ctx_p2 cp p1)) sk.hp) sk.p in
  let mq = Bigint.erem (Bigint.mul (lq (Modular.pow_ctx sk.ctx_q2 cq q1)) sk.hq) sk.q in
  (* Garner recombination: m = mp + p * ((mq - mp) * p^-1 mod q). *)
  let diff = Bigint.erem (Bigint.sub mq mp) sk.q in
  let h = Bigint.erem (Bigint.mul diff sk.p_inv_mod_q) sk.q in
  Bigint.erem (Bigint.add mp (Bigint.mul sk.p h)) pk.n

(* Decryption is pure per ciphertext once the canonical value is
   realized, so batches fan out unchanged — [ct_value] runs before the
   fan-out so workers never race on the caches. *)
let decrypt_batch ?(workers = Ppst_parallel.Pool.sequential) sk cs =
  Ppst_telemetry.Metrics.observe m_decrypt_batch (float_of_int (Array.length cs));
  Array.iter
    (fun c ->
      check_same_key sk.public c;
      ignore (ct_value c))
    cs;
  Ppst_parallel.Pool.map_array workers (decrypt sk) cs

let decrypt_crt_batch ?(workers = Ppst_parallel.Pool.sequential) sk cs =
  Ppst_telemetry.Metrics.observe m_decrypt_batch (float_of_int (Array.length cs));
  Array.iter
    (fun c ->
      check_same_key sk.public c;
      ignore (ct_value c))
    cs;
  Ppst_parallel.Pool.map_array workers (decrypt_crt sk) cs

let add pk c1 c2 =
  check_same_key pk c1;
  check_same_key pk c2;
  ct_of_mont pk (Montgomery.mont_mul_raw (mont_n2 pk) (ct_mont c1) (ct_mont c2))

let add_plain pk c k =
  check_same_key pk c;
  let k = Bigint.erem k pk.n in
  let gk = Modular.to_mont_ctx pk.ctx_n2 (g_pow_m pk k) in
  ct_of_mont pk (Montgomery.mont_mul_raw (mont_n2 pk) (ct_mont c) gk)

let scalar_mul pk c k =
  check_same_key pk c;
  let k = Bigint.erem k pk.n in
  ct_of_mont pk (Montgomery.pow_raw (mont_n2 pk) (ct_mont c) (Bigint.magnitude k))

let neg pk c = scalar_mul pk c (Bigint.pred pk.n)

let sub pk c1 c2 = add pk c1 (neg pk c2)

(* Homomorphic negation by modular inverse: Enc(m)^-1 = Enc(-m) with
   inverted randomness.  Same plaintext as [neg] (a full n-1 power) but
   one egcd instead of a 1024-bit ladder — the packed fast path inverts
   the server's coordinate ciphertexts once and then raises them to
   *small* positive exponents.  Ciphertext bytes differ from [neg], so
   this lives on the packed (distance-compared) path only. *)
let invert_ciphertext pk c =
  check_same_key pk c;
  ct_of_value pk (Modular.invert (ct_value c) pk.n_squared)

let rerandomize pk rng c =
  check_same_key pk c;
  let rn = rn_of_bigint pk (fresh_rn pk rng) in
  ct_of_mont pk (Montgomery.mont_mul_raw (mont_n2 pk) (ct_mont c) rn)

let rerandomize_sk sk rng c =
  let pk = sk.public in
  check_same_key pk c;
  let r = random_unit pk rng in
  let rn = rn_of_bigint pk (fresh_rn_sk sk r) in
  ct_of_mont pk (Montgomery.mont_mul_raw (mont_n2 pk) (ct_mont c) rn)

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

let check_slot pk ~slot_bits v =
  if Bigint.is_negative v || Bigint.num_bits v > slot_bits then
    raise
      (Invalid_plaintext
         (Printf.sprintf "packed slot outside [0, 2^%d)" slot_bits));
  ignore pk

let pack_plain pk ~slot_bits values =
  let k = Array.length values in
  if k = 0 || k > pack_capacity pk ~slot_bits then
    invalid_arg "Paillier.pack_plain: slot count outside [1, capacity]";
  Array.iter (check_slot pk ~slot_bits) values;
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

(* Signed encoding: x in (-n/2, n/2) represented as x mod n. *)
let half_n pk = Bigint.shift_right pk.n 1

let encode_signed pk x =
  let h = half_n pk in
  if Bigint.compare (Bigint.abs x) h >= 0 then
    raise (Invalid_plaintext "signed value outside (-n/2, n/2)");
  Bigint.erem x pk.n

let decode_signed pk m =
  if Bigint.compare m (half_n pk) > 0 then Bigint.sub m pk.n else m

let encrypt_signed pk rng x = encrypt pk rng (encode_signed pk x)

let decrypt_signed sk c = decode_signed sk.public (decrypt_crt sk c)

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
   CRT exponentiation runs. *)
let validate_ciphertext pk v =
  let invalid msg =
    Ppst_telemetry.Metrics.incr m_invalid_ciphertext;
    raise (Invalid_ciphertext msg)
  in
  if Bigint.is_negative v || Bigint.equal v Bigint.zero then
    invalid "ciphertext outside [1, n^2-1]";
  if Bigint.compare v pk.n_squared >= 0 then
    invalid "ciphertext outside [1, n^2-1]";
  if not (Bigint.equal (Modular.gcd v pk.n) Bigint.one) then
    invalid "ciphertext is not a unit mod n^2";
  ct_of_value pk v

let ciphertext_bytes pk = (Bigint.num_bits pk.n_squared + 7) / 8

let equal_ciphertext a b =
  Bigint.equal a.key_n b.key_n && Bigint.equal (ct_value a) (ct_value b)
