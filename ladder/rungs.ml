(* The unit-cost rungs L0-L5: each times one call into a single layer's
   public function, in ns per operation.  L0-L3 run at every key size in
   [key_sizes]; the transport rungs (L4/L5) and the pool rung are
   key-independent.  A traced run reconciles an operation's wall time
   against these ([Traced.reconcile]). *)

open Ppst.Import
module Nat = Ppst_bigint.Nat
module Montgomery = Ppst_bigint.Montgomery
module Fixed_base = Ppst_bigint.Fixed_base
module Masking = Ppst.Masking
module Crc32 = Ppst_transport.Crc32
module Server_loop = Ppst_transport.Server_loop

let key_sizes = [ 64; 256; 512; 1024 ]

(* Median ns/call over at least three samples.  Cheap calls are batched
   (batch size doubled until one batch fills a fifth of [budget_s]);
   a call costing more than a third of the budget is sampled singly, the
   first (warm-up) call counting as one of the three samples. *)
let time_ns ~budget_s f =
  let t0 = Summary.now () in
  f ();
  let first = Summary.now () -. t0 in
  if first >= budget_s /. 3.0 then begin
    let single () =
      let t0 = Summary.now () in
      f ();
      Summary.now () -. t0
    in
    let rest = List.init 2 (fun _ -> single ()) in
    Summary.median (first :: rest) *. 1e9
  end
  else begin
    let batch k =
      let t0 = Summary.now () in
      for _ = 1 to k do
        f ()
      done;
      Summary.now () -. t0
    in
    let rec calibrate k =
      if k >= 1 lsl 24 || batch k >= budget_s /. 10.0 then k else calibrate (2 * k)
    in
    let k = calibrate 1 in
    let samples = List.init 5 (fun _ -> batch k /. float_of_int k) in
    Summary.median samples *. 1e9
  end

(* Per-rung timing budget in seconds; the smoke run shrinks
   [budget_scale]. *)
let budget_scale = ref 1.0

let budget_for bits =
  !budget_scale *. if bits >= 1024 then 0.12 else 0.05

type key = {
  bits : int;
  pk : Paillier.public_key;
  sk : Paillier.private_key;
  rng : Secure_rng.t;
}

let make_key bits =
  let rng = Secure_rng.of_seed_string (Printf.sprintf "ladder/rung-key/%d" bits) in
  let pk, sk = Paillier.keygen ~bits rng in
  { bits; pk; sk; rng }

(* The masking parameters of a 16 x 16 DTW session at coordinate bound
   100, k = 10 — the shape of the pair workloads' cells. *)
let cell_session k =
  Ppst.Params.plan
    (Ppst.Params.make ~key_bits:k.bits ~k:10 ())
    ~max_value:100 ~dimension:1 ~client_length:16 ~server_length:16
    ~modulus:k.pk.Paillier.n ~distance:`Dtw

let slot_bits = 32

(* L0-L3 at one key size.  Every operand is drawn before timing. *)
let arithmetic_rungs k =
  let budget_s = budget_for k.bits in
  let { pk; sk; rng; _ } = k in
  let n2 = pk.Paillier.n_squared in
  let residue () = Secure_rng.below rng n2 in
  let a = Bigint.magnitude (residue ()) and b = Bigint.magnitude (residue ()) in
  let wide = Bigint.magnitude (Bigint.mul (residue ()) (residue ())) in
  let n2_nat = Bigint.magnitude n2 in
  let mctx = Modular.mont_of_ctx pk.Paillier.ctx_n2 in
  let ma = Modular.to_mont_ctx pk.Paillier.ctx_n2 (residue ()) in
  let mb = Modular.to_mont_ctx pk.Paillier.ctx_n2 (residue ()) in
  let n_nat = Bigint.magnitude pk.Paillier.n in
  (* the fixed-base table of the packed profile's fast noise *)
  let ebits = (k.bits / 2) + 64 in
  let table = Fixed_base.create pk.Paillier.ctx_n2 ~max_bits:ebits (residue ()) in
  let exps = Array.init 16 (fun _ -> Secure_rng.bits rng ebits) in
  let next = ref 0 in
  let cycle arr =
    next := (!next + 1) land 15;
    arr.(!next)
  in
  let plains = Array.init 16 (fun i -> Bigint.of_int (1000 + i)) in
  let cts = Array.map (Paillier.encrypt pk rng) plains in
  let rn = Paillier.rn_of_bigint pk (Paillier.ciphertext_to_bigint (Paillier.encrypt pk rng Bigint.zero)) in
  let capacity = Paillier.pack_capacity pk ~slot_bits in
  let pack_in = Array.sub (Array.append cts (Array.make capacity cts.(0))) 0 capacity in
  let session = cell_session k in
  let encrypt_online m = Paillier.encrypt_with_rn pk ~rn m in
  (* one masked round as the protocol runs it: client masks (offsets
     encrypted online with a precomputed noise factor), server decrypts
     every candidate and re-encrypts the extreme, client unmasks *)
  let round extreme inputs () =
    let prepare, unmask, pick =
      match extreme with
      | `Min -> (Masking.prepare_min, Masking.unmask_min, Bigint.min)
      | `Max -> (Masking.prepare_max, Masking.unmask_max, Bigint.max)
    in
    let prepared = prepare ?encrypt:(Some encrypt_online) ~pk ~rng ~session inputs in
    let plains = Array.map (Paillier.decrypt_crt sk) prepared.Masking.candidates in
    let m = Array.fold_left pick plains.(0) plains in
    ignore (unmask ~pk prepared (Paillier.encrypt_sk sk rng m))
  in
  let rungs =
    [
      ("nat.mul", fun () -> ignore (Nat.mul a b));
      ("nat.divmod", fun () -> ignore (Nat.divmod wide n2_nat));
      ("montgomery.mul", fun () -> ignore (Montgomery.mont_mul_raw mctx ma mb));
      ("montgomery.pow", fun () -> ignore (Montgomery.pow_raw mctx ma n_nat));
      ("fixed_base.pow", fun () -> ignore (Fixed_base.pow_raw table (cycle exps)));
      ("paillier.encrypt", fun () -> ignore (Paillier.encrypt pk rng (cycle plains)));
      ("paillier.encrypt_pooled", fun () -> ignore (encrypt_online (cycle plains)));
      ("paillier.encrypt_sk", fun () -> ignore (Paillier.encrypt_sk sk rng (cycle plains)));
      ( "paillier.pool_refill",
        fun () -> Paillier.pool_refill pk (Paillier.pool_create pk) rng 1 );
      ( "paillier.pool_refill_fast",
        (* per entry, the subgroup table build amortized over 16 *)
        fun () -> Paillier.pool_refill_fast pk (Paillier.pool_create pk) rng 16 );
      ("paillier.decrypt_crt", fun () -> ignore (Paillier.decrypt_crt sk (cycle cts)));
      ("paillier.add", fun () -> ignore (Paillier.add pk (cycle cts) cts.(0)));
      ( "paillier.scalar_mul",
        fun () -> ignore (Paillier.scalar_mul pk (cycle cts) (Bigint.of_int (-146))) );
      ("paillier.pack", fun () -> ignore (Paillier.pack_ciphertexts pk ~slot_bits pack_in));
      ("masking.min_round", round `Min (Array.sub cts 0 3));
      ("masking.max_round", round `Max (Array.sub cts 0 2));
    ]
  in
  List.map
    (fun (name, f) ->
      let ns = time_ns ~budget_s f in
      let ns = if name = "paillier.pool_refill_fast" then ns /. 16.0 else ns in
      Metric.make (Printf.sprintf "rung.%s.k%d" name k.bits) "ns" ns)
    rungs

(* L4/L5: the frame codec, CRC and one channel round trip. *)
let transport_rungs ~small_key ~large_key ~tcp_port =
  let budget_s = budget_for 64 in
  let ct_values k count =
    Array.init count (fun i ->
        Paillier.ciphertext_to_bigint (Paillier.encrypt k.pk k.rng (Bigint.of_int i)))
  in
  let small = Message.Request (Message.Min_request (ct_values small_key 12)) in
  let large =
    Message.Request
      (Message.Batch_min_request (Array.init 5 (fun _ -> ct_values large_key 12)))
  in
  let small_s = Message.encode small and large_s = Message.encode large in
  let kib = 64 in
  let block = Secure_rng.bytes small_key.rng (kib * 1024) in
  let local = Channel.local (fun _ -> Message.Reveal_reply Bigint.one) in
  let tcp = Channel.connect ~host:"127.0.0.1" ~port:tcp_port () in
  let time ?(per = 1) name f =
    Metric.make ("rung." ^ name) "ns" (time_ns ~budget_s f /. float_of_int per)
  in
  let rungs =
    [
      time "message.encode.small" (fun () -> ignore (Message.encode small));
      time "message.decode.small" (fun () -> ignore (Message.decode small_s));
      time "message.encode.large" (fun () -> ignore (Message.encode large));
      time "message.decode.large" (fun () -> ignore (Message.decode large_s));
      time ~per:kib "crc32.per_kib" (fun () -> ignore (Crc32.digest block));
      time "channel.round.local" (fun () ->
          ignore (Channel.request local (Message.Reveal_request Bigint.one)));
      time "channel.round.tcp" (fun () -> ignore (Channel.request tcp Message.Health_req));
    ]
  in
  Channel.close tcp;
  rungs

(* Lane efficiency of the Domain pool on the pair-wire decryption shape:
   32 CRT decryptions at 512 bits, one lane vs two.  The two are timed
   back to back in pairs and the median ratio is reported, so a slow
   stretch of the host falls on both sides of a pair. *)
let pool_rung k =
  let cts = Array.init 32 (fun i -> Paillier.encrypt k.pk k.rng (Bigint.of_int i)) in
  let wall workers =
    let t0 = Summary.now () in
    ignore (Paillier.decrypt_crt_batch ~workers k.sk cts);
    Summary.now () -. t0
  in
  let pool = Parallel.create 2 in
  let ratios =
    Fun.protect
      ~finally:(fun () -> Parallel.shutdown pool)
      (fun () -> List.init 5 (fun _ -> wall Parallel.sequential /. wall pool))
  in
  Metric.make "rung.pool.decrypt_batch_speedup.j2" "ratio" (Summary.median ratios)

(* A trivial Server_loop for the TCP round rung: Health_req is answered
   by the loop itself, so the handler is never reached. *)
let spawn_health_server () =
  Tcp.spawn (fun () ->
      ( (fun ~id:_ ~peer:_ ->
          Server_loop.respond_only (fun _ -> Message.Error_reply "unused")),
        fun () -> [] ))

(* Every rung, in ladder order.  [sizes] restricts the key sizes (the
   smoke run uses 64 bits only); [tcp_port] is a running health server
   (spawn it before any Domain exists, see Tcp). *)
let run ?(sizes = key_sizes) ~tcp_port () =
  let keys = List.map make_key sizes in
  let find bits = List.find_opt (fun k -> k.bits = bits) keys in
  let small_key = match find 64 with Some k -> k | None -> make_key 64 in
  let large_key = match find 1024 with Some k -> k | None -> small_key in
  let wire_key = match find 512 with Some k -> k | None -> small_key in
  let arith = List.concat_map arithmetic_rungs keys in
  let transport = transport_rungs ~small_key ~large_key ~tcp_port in
  arith @ transport @ [ pool_rung wire_key ]

let find rungs name =
  match List.find_opt (fun r -> r.Metric.name = name) rungs with
  | Some r -> r.Metric.value
  | None -> nan
