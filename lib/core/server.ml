open Import

type t = {
  records : Series.t array;
  ids : string array;
  mutable selected : int;
  sk : Paillier.private_key;
  rng : Secure_rng.t;
  max_value : int;
  ops : Cost.ops;
  mutable reveals : int;
  max_reveals : int option;
  decryption : [ `Standard | `Crt ];
  workers : Parallel.t;
  mutable noise : Paillier.noise_gen option;
      (* lazily built fast-noise table for packed-reply re-encryptions;
         one CRT h^n and one table amortized over the session *)
}

(* Process totals beside each session's [ops] record: a serving process
   shares one registry between its sessions and reports it at exit. *)
let m_encryptions = Metrics.counter "server.crypto.encryptions"
let m_decryptions = Metrics.counter "server.crypto.decryptions"

let check_bounds series max_value =
  match Series.find_outside series ~max_value with
  | None -> ()
  | Some (i, l, v) ->
    invalid_arg
      (Printf.sprintf "Server: coordinate %d of element %d is %d, outside [0, %d]"
         l i v max_value)

let create_db_with_key ?(decryption = `Standard) ?(workers = Parallel.sequential)
    ?max_reveals ?ids ~sk ~rng ~records ~max_value () =
  if Array.length records = 0 then invalid_arg "Server: empty record set";
  let dim = Series.dimension records.(0) in
  Array.iter
    (fun series ->
      if Series.dimension series <> dim then
        invalid_arg "Server: records have differing dimensions";
      check_bounds series max_value)
    records;
  let ids =
    match ids with
    | None -> Array.init (Array.length records) string_of_int
    | Some ids ->
      if Array.length ids <> Array.length records then
        invalid_arg "Server: ids and records length mismatch";
      ids
  in
  (match max_reveals with
   | Some limit when limit <= 0 ->
     invalid_arg "Server: max_reveals must be positive"
   | _ -> ());
  {
    records;
    ids;
    selected = 0;
    sk;
    rng;
    max_value;
    ops = { encryptions = 0; decryptions = 0; homomorphic = 0 };
    reveals = 0;
    max_reveals;
    decryption;
    workers;
    noise = None;
  }

let create_with_key ?decryption ?workers ~sk ~rng ~series ~max_value () =
  create_db_with_key ?decryption ?workers ~sk ~rng ~records:[| series |] ~max_value ()

let create_db ?(params = Params.default) ?decryption ?workers ?max_reveals ?ids ~rng
    ~records ~max_value () =
  let _pk, sk = Paillier.keygen ~bits:params.Params.key_bits rng in
  create_db_with_key ?decryption ?workers ?max_reveals ?ids ~sk ~rng ~records
    ~max_value ()

let of_store ~rng ~store ~max_value () =
  create_db ~ids:(Store.ids store) ~rng ~records:(Store.records store) ~max_value ()

let of_store_with_key ?decryption ~sk ~rng ~store ~max_value () =
  create_db_with_key ?decryption ~ids:(Store.ids store) ~sk ~rng
    ~records:(Store.records store) ~max_value ()

let create ?params ?decryption ?workers ?max_reveals ~rng ~series ~max_value () =
  create_db ?params ?decryption ?workers ?max_reveals ~rng ~records:[| series |]
    ~max_value ()

let public_key t = t.sk.Paillier.public
let private_key t = t.sk
let ops t = t.ops
let reveal_count t = t.reveals
let active_series t = t.records.(t.selected)

(* Decryption fan-out: the worker count never touches the server's rng
   stream (decryption is deterministic), so replies are bit-identical at
   any pool size. *)
let decrypt_batch t cs =
  t.ops.decryptions <- t.ops.decryptions + Array.length cs;
  Metrics.incr ~by:(Array.length cs) m_decryptions;
  match t.decryption with
  | `Standard -> Paillier.decrypt_batch ~workers:t.workers t.sk cs
  | `Crt -> Paillier.decrypt_crt_batch ~workers:t.workers t.sk cs

let count_encryptions t k =
  t.ops.encryptions <- t.ops.encryptions + k;
  Metrics.incr ~by:k m_encryptions

(* Phase 1 payload: for every element y_j, Enc(Σ_l y_jl²) and each
   Enc(y_jl) — the one-way transfer of Section 3.2.  Flattened into one
   batch so the encryptions fan out; the flat order matches the
   sequential per-element order, keeping the rng stream unchanged. *)
let phase1_elements t =
  let series = active_series t in
  let d = Series.dimension series in
  let n = Series.length series in
  let plains = Array.make (n * (d + 1)) Bigint.zero in
  for j = 0 to n - 1 do
    let y = Series.get series j in
    let sum_sq = ref 0 in
    for l = 0 to d - 1 do
      sum_sq := !sum_sq + (y.(l) * y.(l))
    done;
    plains.((j * (d + 1))) <- Bigint.of_int !sum_sq;
    for l = 0 to d - 1 do
      plains.((j * (d + 1)) + 1 + l) <- Bigint.of_int y.(l)
    done
  done;
  count_encryptions t (n * (d + 1));
  let encs = Paillier.encrypt_batch_sk ~workers:t.workers t.sk t.rng plains in
  Array.init n (fun j ->
      {
        Message.sum_sq = Paillier.ciphertext_to_bigint encs.(j * (d + 1));
        coords =
          Array.init d (fun l ->
              Paillier.ciphertext_to_bigint encs.((j * (d + 1)) + 1 + l));
      })

exception Bad_candidates of string

(* Hostile-input boundary: everything the client ships into the decrypt
   path goes through the strict validator (range AND gcd(c,n)=1), so a
   garbage value is a typed [Bad_candidates] — answered in-band as
   Error_reply — and never reaches a CRT exponentiation. *)
let validate t (cs : Bigint.t array) =
  match Array.map (Paillier.validate_ciphertext t.sk) cs with
  | cs -> cs
  | exception Paillier.Invalid_ciphertext m -> raise (Bad_candidates m)

(* Fresh-noise table for packed-reply re-encryptions, built lazily: one
   CRT [h^n] and one table amortized over the session. *)
let noise_gen t =
  match t.noise with
  | Some g -> g
  | None ->
    let g = Paillier.noise_gen_create_sk t.sk t.rng in
    t.noise <- Some g;
    g

(* The key holder's half of the masked-extreme round (Sections 5.1 and
   6): decrypt the candidates of every instance, keep each instance's
   extreme ([pick] is Bigint.min or Bigint.max), and return a *fresh*
   encryption of it (path hiding, Section 5.5).  The whole frame is
   validated before any decryption.  Candidates arrive one per
   ciphertext ([`Sets]), decrypted as one flat batch, or [capacity]
   slots to a ciphertext ([`Packed]), so the round costs
   ceil(total/capacity) decryptions instead of total.  Re-encryption
   draws its randomness in instance order — the packed profile's through
   the cached subgroup noise generator (SECURITY.md on its caveat). *)
let extremes t pick ~single frame =
  let pk = public_key t in
  let need_two k = if k < 2 then raise (Bad_candidates "need at least two candidates") in
  match
    match frame with
    | `Sets sets ->
      if Array.length sets = 0 then raise (Bad_candidates "empty batch");
      let cs = Array.map (fun set -> need_two (Array.length set); validate t set) sets in
      (Array.map Array.length sets, Array.concat (Array.to_list cs), None)
    | `Packed (slot_bits, counts, packed) ->
      if slot_bits <= 0 || slot_bits >= pk.Paillier.bits then
        raise (Bad_candidates "packed slot width out of range for this key");
      let capacity = Paillier.pack_capacity pk ~slot_bits in
      if Array.length counts = 0 then raise (Bad_candidates "empty packed batch");
      Array.iter need_two counts;
      let total = Array.fold_left ( + ) 0 counts in
      let expected = (total + capacity - 1) / capacity in
      if Array.length packed <> expected then
        raise
          (Bad_candidates
             (Printf.sprintf "expected %d packed ciphertexts for %d slots, got %d"
                expected total (Array.length packed)));
      (counts, validate t packed, Some (slot_bits, capacity))
  with
  | exception Bad_candidates m -> Message.Error_reply m
  | counts, cs, packing ->
    let plains = decrypt_batch t cs in
    let slots =
      match packing with
      | None -> plains
      | Some (slot_bits, capacity) ->
        (* the last pack's unused top slots are unpacked too, never read *)
        Array.concat
          (Array.to_list (Array.map (Paillier.unpack_plain ~slot_bits ~count:capacity) plains))
    in
    let _, best =
      Array.fold_left_map
        (fun lo k -> (lo + k, Array.fold_left pick slots.(lo) (Array.sub slots lo k)))
        0 counts
    in
    count_encryptions t (Array.length best);
    let encs =
      match packing with
      | None -> Paillier.encrypt_batch_sk ~workers:t.workers t.sk t.rng best
      | Some _ ->
        let g = noise_gen t in
        Array.map
          (fun m -> Paillier.encrypt_with_rn pk ~rn:(Paillier.noise_gen_rn g pk t.rng) m)
          best
    in
    let replies = Array.map Paillier.ciphertext_to_bigint encs in
    if single then Message.Cipher_reply replies.(0) else Message.Batch_cipher_reply replies

(* Catalog extension: encrypted pruning sketches.  For each requested
   record the per-segment coupling-window extremes
   (Lower_bound.segment_bounds) are encrypted coordinate-wise —
   candidate-major, all Lo (segment-major, dimension-minor) then all Hi
   — as one flat batch, so the rng stream matches a sequential loop and
   the encryptions fan out across the worker pool. *)
let query_sketches t ~segments ~band ~indices =
  let nrec = Array.length t.records in
  if Array.length indices = 0 then raise (Bad_candidates "empty candidate set");
  if segments <= 0 then raise (Bad_candidates "segments must be positive");
  (match band with
  | Some b when b < 0 -> raise (Bad_candidates "negative band")
  | _ -> ());
  Array.iter
    (fun i ->
      if i < 0 || i >= nrec then
        raise (Bad_candidates (Printf.sprintf "record %d out of range [0, %d)" i nrec));
      if segments > Series.length t.records.(i) then
        raise
          (Bad_candidates
             (Printf.sprintf "%d segments exceed record %d length %d" segments i
                (Series.length t.records.(i)))))
    indices;
  let d = Series.dimension t.records.(0) in
  let per = segments * d in
  let plains = Array.make (Array.length indices * 2 * per) Bigint.zero in
  Array.iteri
    (fun c i ->
      let lo, hi = Lower_bound.segment_bounds ~segments ~band t.records.(i) in
      for s = 0 to segments - 1 do
        for l = 0 to d - 1 do
          plains.((c * 2 * per) + (s * d) + l) <- Bigint.of_int lo.(s).(l);
          plains.((c * 2 * per) + per + (s * d) + l) <- Bigint.of_int hi.(s).(l)
        done
      done)
    indices;
  count_encryptions t (Array.length plains);
  let encs = Paillier.encrypt_batch_sk ~workers:t.workers t.sk t.rng plains in
  Array.init (Array.length indices) (fun c ->
      {
        Message.lo =
          Array.init per (fun j ->
              Paillier.ciphertext_to_bigint encs.((c * 2 * per) + j));
        hi =
          Array.init per (fun j ->
              Paillier.ciphertext_to_bigint encs.((c * 2 * per) + per + j));
      })

(* Catalog extension: the verdict round.  Each candidate arrives as a
   multiplicatively blinded threshold difference Enc(ρ·(G - τ_G - 1) + μ);
   only the sign of the plaintext (encoded as wrap-around past n/2) is
   disclosed — survive when negative, prune when non-negative. *)
let verdicts t (blinded : Bigint.t array) =
  if Array.length blinded = 0 then raise (Bad_candidates "empty verdict set");
  let pk = public_key t in
  let plains = decrypt_batch t (validate t blinded) in
  let half = Bigint.shift_right pk.Paillier.n 1 in
  Array.map (fun p -> Bigint.compare p half > 0) plains

(* Session-state codec for cross-worker failover.  Only protocol-visible
   state travels: the selected record index, the reveal count, and the
   crypto-op counters (so the session's Cost counters survive a worker
   death).  The key, records, worker pool, and noise cache are the
   restoring process's own configuration; the rng stream position is
   deliberately not captured — server randomness cancels at decryption,
   so replies re-encrypted under a fresh stream decrypt to the same
   plaintexts (asserted by the failover chaos tests). *)

let export_state t =
  let w = Wire.writer () in
  Wire.put_u32 w t.selected;
  Wire.put_u32 w t.reveals;
  Wire.put_u32 w t.ops.encryptions;
  Wire.put_u32 w t.ops.decryptions;
  Wire.put_u32 w t.ops.homomorphic;
  Wire.contents w

let restore_state t blob =
  let r = Wire.reader blob in
  let selected = Wire.get_u32 r in
  let reveals = Wire.get_u32 r in
  let encryptions = Wire.get_u32 r in
  let decryptions = Wire.get_u32 r in
  let homomorphic = Wire.get_u32 r in
  Wire.expect_end r;
  if selected >= Array.length t.records then
    raise
      (Wire.Malformed
         (Printf.sprintf "Server.restore_state: record %d out of range [0, %d)"
            selected (Array.length t.records)));
  t.selected <- selected;
  t.reveals <- reveals;
  t.ops.encryptions <- encryptions;
  t.ops.decryptions <- decryptions;
  t.ops.homomorphic <- homomorphic

let handle t (req : Message.request) : Message.reply =
  let pk = public_key t in
  match req with
  | Message.Hello { flags; _ } ->
    (* the core handler grants no *transport* capabilities: flag
       negotiation (CRC, resume) belongs to the serving loop, which
       rewrites this Welcome with its grant and token (Server_loop).
       Packing and catalog search are application capabilities, so they
       are granted here and preserved by the loop's rewrite. *)
    Message.Welcome
      {
        n = pk.Paillier.n;
        key_bits = pk.Paillier.bits;
        series_length = Series.length (active_series t);
        dimension = Series.dimension (active_series t);
        max_value = t.max_value;
        flags = flags land (Message.flag_packing lor Message.flag_catalog);
        resume_token = "";
      }
  | Message.Catalog_request ->
    Message.Catalog_reply (Array.map Series.length t.records)
  | Message.Catalog_list_request ->
    Message.Catalog_list_reply
      { ids = Array.copy t.ids; lengths = Array.map Series.length t.records }
  | Message.Query_submit { segments; band; indices } -> (
    match query_sketches t ~segments ~band ~indices with
    | sketches -> Message.Query_sketch sketches
    | exception Bad_candidates m -> Message.Error_reply m)
  | Message.Verdict_request blinded -> (
    match verdicts t blinded with
    | survive -> Message.Verdict_reply survive
    | exception Bad_candidates m -> Message.Error_reply m)
  | Message.Select_request i ->
    if i < 0 || i >= Array.length t.records then
      Message.Error_reply
        (Printf.sprintf "record %d out of range [0, %d)" i (Array.length t.records))
    else begin
      t.selected <- i;
      Message.Select_ack i
    end
  | Message.Phase1_request -> Message.Phase1_reply (phase1_elements t)
  | Message.Min_request set -> extremes t Bigint.min ~single:true (`Sets [| set |])
  | Message.Max_request set -> extremes t Bigint.max ~single:true (`Sets [| set |])
  | Message.Batch_min_request sets -> extremes t Bigint.min ~single:false (`Sets sets)
  | Message.Batch_max_request sets -> extremes t Bigint.max ~single:false (`Sets sets)
  | Message.Packed_min_request { slot_bits; counts; packed } ->
    extremes t Bigint.min ~single:false (`Packed (slot_bits, counts, packed))
  | Message.Packed_max_request { slot_bits; counts; packed } ->
    extremes t Bigint.max ~single:false (`Packed (slot_bits, counts, packed))
  | Message.Reveal_request v -> begin
    match t.max_reveals with
    | Some limit when t.reveals >= limit ->
      Message.Error_reply
        (Printf.sprintf "reveal budget exhausted (%d allowed per session)" limit)
    | _ -> begin
      match Paillier.validate_ciphertext t.sk v with
      | exception Paillier.Invalid_ciphertext m -> Message.Error_reply m
      | c ->
        t.reveals <- t.reveals + 1;
        Message.Reveal_reply (decrypt_batch t [| c |]).(0)
    end
  end
  (* In-process servers answer both with the process-wide OpenMetrics
     page; a TCP daemon's Server_loop intercepts them before they reach
     here (prefixing Stats with its resume table, capability-gating
     Metrics). *)
  | Message.Stats_req -> Message.Stats_reply (Exposition.render ())
  | Message.Metrics_req -> Message.Metrics_reply (Exposition.render ())
  (* An in-process / single-session server is ready by definition; the
     TCP daemon's Server_loop answers this itself with live capacity. *)
  | Message.Health_req ->
    Message.Health_reply { status = 0; active = 0; capacity = 1; retry_after_s = 0.0 }
  (* Resume is a transport concern (Server_loop intercepts it before the
     handler); reaching the core handler means nobody retains state. *)
  | Message.Resume _ ->
    Message.Resume_reject { reason = "this endpoint does not retain session state" }
  (* An in-process server sends 0: Channel.local times the handler
     itself; the TCP Server_loop answers Bye with its measured total. *)
  | Message.Bye -> Message.Bye_ack { server_seconds = 0.0 }
