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
  decrypt : Paillier.private_key -> Paillier.ciphertext -> Bigint.t;
  decryption : [ `Standard | `Crt ];
  workers : Parallel.t;
  mutable noise : Paillier.noise_gen option;
      (* lazily built fast-noise table for packed-reply re-encryptions;
         one full-width exponentiation amortized over the session *)
}

let check_bounds series max_value =
  let len = Series.length series and d = Series.dimension series in
  for i = 0 to len - 1 do
    let e = Series.get series i in
    for l = 0 to d - 1 do
      if e.(l) < 0 || e.(l) > max_value then
        invalid_arg
          (Printf.sprintf "Server: coordinate %d of element %d is %d, outside [0, %d]"
             l i e.(l) max_value)
    done
  done

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
  let decrypt =
    match decryption with
    | `Standard -> Paillier.decrypt
    | `Crt -> Paillier.decrypt_crt
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
    decrypt;
    decryption;
    workers;
    noise = None;
  }

let create_with_key ?decryption ?workers ?max_reveals ~sk ~rng ~series ~max_value () =
  create_db_with_key ?decryption ?workers ?max_reveals ~sk ~rng ~records:[| series |]
    ~max_value ()

let create_db ?(params = Params.default) ?decryption ?workers ?max_reveals ?ids ~rng
    ~records ~max_value () =
  let _pk, sk = Paillier.keygen ~bits:params.Params.key_bits rng in
  create_db_with_key ?decryption ?workers ?max_reveals ?ids ~sk ~rng ~records
    ~max_value ()

let of_store ?params ?decryption ?workers ?max_reveals ~rng ~store ~max_value () =
  create_db ?params ?decryption ?workers ?max_reveals ~ids:(Store.ids store) ~rng
    ~records:(Store.records store) ~max_value ()

let of_store_with_key ?decryption ?workers ?max_reveals ~sk ~rng ~store ~max_value () =
  create_db_with_key ?decryption ?workers ?max_reveals ~ids:(Store.ids store) ~sk ~rng
    ~records:(Store.records store) ~max_value ()

let create ?params ?decryption ?workers ?max_reveals ~rng ~series ~max_value () =
  create_db ?params ?decryption ?workers ?max_reveals ~rng ~records:[| series |]
    ~max_value ()

let public_key t = t.sk.Paillier.public
let private_key t = t.sk
let ops t = t.ops
let reveal_count t = t.reveals
let record_count t = Array.length t.records
let selected t = t.selected
let active_series t = t.records.(t.selected)

(* Decryption fan-out: the worker count never touches the server's rng
   stream (decryption is deterministic), so replies are bit-identical at
   any pool size. *)
let decrypt_batch t cs =
  t.ops.decryptions <- t.ops.decryptions + Array.length cs;
  match t.decryption with
  | `Standard -> Paillier.decrypt_batch ~workers:t.workers t.sk cs
  | `Crt -> Paillier.decrypt_crt_batch ~workers:t.workers t.sk cs

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
  t.ops.encryptions <- t.ops.encryptions + (n * (d + 1));
  let encs = Paillier.encrypt_batch_sk ~workers:t.workers t.sk t.rng plains in
  Array.init n (fun j ->
      {
        Message.sum_sq = Paillier.ciphertext_to_bigint encs.(j * (d + 1));
        coords =
          Array.init d (fun l ->
              Paillier.ciphertext_to_bigint encs.((j * (d + 1)) + 1 + l));
      })

(* Decrypt every candidate, select by [better], and return a *fresh*
   encryption of the selected plaintext (path hiding, Section 5.5). *)
exception Bad_candidates of string

(* Hostile-input boundary: everything the client ships into the decrypt
   path goes through the strict validator (range AND gcd(c,n)=1), so a
   garbage value is a typed [Bad_candidates] — answered in-band as
   Error_reply — and never reaches a CRT exponentiation. *)
let wrap_candidates pk (candidates : Bigint.t array) =
  if Array.length candidates < 2 then raise (Bad_candidates "need at least two candidates");
  match Array.map (Paillier.validate_ciphertext pk) candidates with
  | cs -> cs
  | exception Paillier.Invalid_ciphertext m -> raise (Bad_candidates m)

let fold_better ~better (plains : Bigint.t array) lo len =
  let best = ref plains.(lo) in
  for i = lo + 1 to lo + len - 1 do
    if better plains.(i) !best then best := plains.(i)
  done;
  !best

let extreme_of t ~better (candidates : Bigint.t array) =
  let pk = public_key t in
  let cs = wrap_candidates pk candidates in
  let plains = decrypt_batch t cs in
  let extreme = fold_better ~better plains 0 (Array.length plains) in
  t.ops.encryptions <- t.ops.encryptions + 1;
  Paillier.ciphertext_to_bigint (Paillier.encrypt_sk t.sk t.rng extreme)

let select_extreme t ~better candidates =
  match extreme_of t ~better candidates with
  | v -> Message.Cipher_reply v
  | exception Bad_candidates m -> Message.Error_reply m

(* Wavefront extension: many independent instances in one round trip.
   All sets are validated up front, decrypted as ONE flat batch (better
   load balance than per-set fan-out when sets are small), then the
   per-set extremes are re-encrypted as one batch.  The re-encryption
   rng draws happen in set order, exactly as the sequential loop's. *)
let select_extreme_batch t ~better (sets : Bigint.t array array) =
  if Array.length sets = 0 then Message.Error_reply "empty batch"
  else begin
    let pk = public_key t in
    match Array.map (wrap_candidates pk) sets with
    | exception Bad_candidates m -> Message.Error_reply m
    | wrapped ->
      let flat = Array.concat (Array.to_list wrapped) in
      let plains = decrypt_batch t flat in
      let extremes = Array.make (Array.length wrapped) Bigint.zero in
      let off = ref 0 in
      Array.iteri
        (fun s cs ->
          let len = Array.length cs in
          extremes.(s) <- fold_better ~better plains !off len;
          off := !off + len)
        wrapped;
      t.ops.encryptions <- t.ops.encryptions + Array.length extremes;
      let encs = Paillier.encrypt_batch_sk ~workers:t.workers t.sk t.rng extremes in
      Message.Batch_cipher_reply (Array.map Paillier.ciphertext_to_bigint encs)
  end

(* Packing extension: the flattened candidate slots of many instances
   arrive [capacity] to a ciphertext, so the whole batch costs
   [ceil(total/capacity)] decryptions instead of [total].  Replies are
   re-encrypted through the cached subgroup noise generator — fresh
   noise per reply at a table-walk's cost (this is the packed/fast
   profile; see SECURITY.md on the subgroup caveat). *)
let noise_gen t =
  match t.noise with
  | Some g -> g
  | None ->
    let g = Paillier.noise_gen_create (public_key t) t.rng in
    t.noise <- Some g;
    g

let select_extreme_packed t ~better ~slot_bits ~counts ~(packed : Bigint.t array) =
  let pk = public_key t in
  match
    if slot_bits <= 0 || slot_bits >= pk.Paillier.bits then
      raise (Bad_candidates "packed slot width out of range for this key");
    let capacity = Paillier.pack_capacity pk ~slot_bits in
    if Array.length counts = 0 then raise (Bad_candidates "empty packed batch");
    Array.iter
      (fun k -> if k < 2 then raise (Bad_candidates "need at least two candidates"))
      counts;
    let total = Array.fold_left ( + ) 0 counts in
    let expected = (total + capacity - 1) / capacity in
    if Array.length packed <> expected then
      raise
        (Bad_candidates
           (Printf.sprintf "expected %d packed ciphertexts for %d slots, got %d"
              expected total (Array.length packed)));
    (match Array.map (Paillier.validate_ciphertext pk) packed with
     | cs -> (capacity, total, cs)
     | exception Paillier.Invalid_ciphertext m -> raise (Bad_candidates m))
  with
  | exception Bad_candidates m -> Message.Error_reply m
  | capacity, total, cs ->
    let plains = decrypt_batch t cs in
    let slots = Array.make total Bigint.zero in
    Array.iteri
      (fun i p ->
        let lo = i * capacity in
        let len = min capacity (total - lo) in
        Array.blit (Paillier.unpack_plain ~slot_bits ~count:len p) 0 slots lo len)
      plains;
    let extremes = Array.make (Array.length counts) Bigint.zero in
    let off = ref 0 in
    Array.iteri
      (fun s k ->
        extremes.(s) <- fold_better ~better slots !off k;
        off := !off + k)
      counts;
    t.ops.encryptions <- t.ops.encryptions + Array.length extremes;
    let g = noise_gen t in
    let encs =
      Array.map
        (fun m -> Paillier.encrypt_with_rn pk ~rn:(Paillier.noise_gen_rn g pk t.rng) m)
        extremes
    in
    Message.Batch_cipher_reply (Array.map Paillier.ciphertext_to_bigint encs)

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
  t.ops.encryptions <- t.ops.encryptions + Array.length plains;
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
  let cs =
    match Array.map (Paillier.validate_ciphertext pk) blinded with
    | cs -> cs
    | exception Paillier.Invalid_ciphertext m -> raise (Bad_candidates m)
  in
  let plains = decrypt_batch t cs in
  let half = Bigint.shift_right pk.Paillier.n 1 in
  Array.map (fun p -> Bigint.compare p half > 0) plains

(* Session-state codec for cross-worker failover.  Only protocol-visible
   state travels: the selected record index, the reveal count, and the
   crypto-op counters (so merged Cost accounting survives a worker
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
  | Message.Min_request candidates ->
    select_extreme t ~better:(fun a b -> Bigint.compare a b < 0) candidates
  | Message.Max_request candidates ->
    select_extreme t ~better:(fun a b -> Bigint.compare a b > 0) candidates
  | Message.Batch_min_request sets ->
    select_extreme_batch t ~better:(fun a b -> Bigint.compare a b < 0) sets
  | Message.Batch_max_request sets ->
    select_extreme_batch t ~better:(fun a b -> Bigint.compare a b > 0) sets
  | Message.Packed_min_request { slot_bits; counts; packed } ->
    select_extreme_packed t
      ~better:(fun a b -> Bigint.compare a b < 0)
      ~slot_bits ~counts ~packed
  | Message.Packed_max_request { slot_bits; counts; packed } ->
    select_extreme_packed t
      ~better:(fun a b -> Bigint.compare a b > 0)
      ~slot_bits ~counts ~packed
  | Message.Reveal_request v -> begin
    match t.max_reveals with
    | Some limit when t.reveals >= limit ->
      Message.Error_reply
        (Printf.sprintf "reveal budget exhausted (%d allowed per session)" limit)
    | _ -> begin
      match Paillier.validate_ciphertext pk v with
      | exception Paillier.Invalid_ciphertext m -> Message.Error_reply m
      | c ->
        t.ops.decryptions <- t.ops.decryptions + 1;
        t.reveals <- t.reveals + 1;
        Message.Reveal_reply (t.decrypt t.sk c)
    end
  end
  (* In-process servers answer with the process-wide registry; a TCP
     daemon's Server_loop intercepts Stats_req before it reaches here and
     prefixes its own live session counters. *)
  | Message.Stats_req -> Message.Stats_reply (Metrics.dump_string ())
  (* Same story for the OpenMetrics page: the TCP daemon's Server_loop
     answers (and capability-gates) this itself; in-process sessions get
     the process-wide registry + rollups directly. *)
  | Message.Metrics_req ->
    Message.Metrics_reply (Exposition.render ~rollup:(Rollup.global ()) ())
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
