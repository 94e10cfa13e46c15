open Import

exception Incompatible of string

type distance_kind = [ `Dtw | `Dfd | `Erp | `Euclidean ]

type t = {
  series : Series.t;
  channel : Channel.t;
  rng : Secure_rng.t;
  noise_rng : Secure_rng.t;
      (* dedicated stream for r^n noise draws, split off [rng] at
         connect.  Masking draws and noise draws then advance two
         independent streams, so precomputing the noise offline (pool
         refill) consumes randomness in exactly the order online misses
         would — pooled and unpooled seeded runs are bit-identical. *)
  pk : Paillier.public_key;
  params : Params.t;
  distance : distance_kind;
  max_value : int;  (* negotiated coordinate bound (max of both parties) *)
  packing : bool;  (* server granted Message.flag_packing *)
  catalog_cap : bool;  (* server granted Message.flag_catalog *)
  mutable session : Params.session;
  mutable server_length : int;
  mutable catalog : int array option;
  cost : Cost.t;
  pool : Paillier.randomness_pool;
  offline : bool;
  workers : Parallel.t;
}

let session t = t.session
let cost t = t.cost
let stats t = Channel.stats t.channel
let channel t = t.channel
let params t = t.params
let server_length t = t.server_length
let client_length t = Series.length t.series
let client_element t i = Series.get t.series i
let max_value t = t.max_value

let show_kind = function
  | `Dtw -> "`Dtw"
  | `Dfd -> "`Dfd"
  | `Erp -> "`Erp"
  | `Euclidean -> "`Euclidean"

(* Drivers call this before touching the matrix: running a distance whose
   value bound exceeds the planned one would break the masking analysis. *)
let require_plan t expected =
  if t.distance <> expected then
    invalid_arg
      (Printf.sprintf
         "this driver needs a session planned with ~distance:%s (got %s)"
         (show_kind expected) (show_kind t.distance))

(* Per-phase elapsed time mirrored into the process metrics registry, so
   a live Stats_req snapshot shows where sessions spend their time. *)
let m_phase_seconds =
  [|
    Metrics.gauge "protocol.phase1.seconds";
    Metrics.gauge "protocol.phase2.seconds";
    Metrics.gauge "protocol.phase3.seconds";
  |]

let phase_index = function Cost.Phase1 -> 0 | Cost.Phase2 -> 1 | Cost.Phase3 -> 2

(* Attribute elapsed time to [phase], splitting out the time the local
   channel spent inside the server handler so client and server work are
   measured separately (Figures 6 and 10).  Both readings are on
   Telemetry's monotonic clock, as the handler time is. *)
let timed t phase f =
  let w0 = Telemetry.now () in
  let s0 = Channel.server_seconds t.channel in
  let result = f () in
  let w1 = Telemetry.now () in
  let s1 = Channel.server_seconds t.channel in
  Cost.add_server_time t.cost phase (s1 -. s0);
  Cost.add_client_time t.cost phase (w1 -. w0 -. (s1 -. s0));
  Metrics.gauge_add m_phase_seconds.(phase_index phase) (w1 -. w0);
  result

(* Pooled online encryption: consumes offline-precomputed r^n factors
   when available (see Paillier.randomness_pool).  Pool misses — online
   exponentiations that the offline provisioning should have covered —
   are mirrored into the cost record after every consumption site. *)
let sync_pool_misses t =
  Cost.set_pool_misses t.cost (Paillier.pool_misses t.pool)

let encrypt_online t m =
  let client_ops = Cost.client_ops t.cost in
  client_ops.Cost.encryptions <- client_ops.Cost.encryptions + 1;
  let c = Paillier.encrypt_pooled t.pk t.pool t.noise_rng m in
  sync_pool_misses t;
  c

(* --- plaintext packing (packed/fast profile) ----------------------------- *)

(* Slot geometry, derived from the masking analysis: every masked
   candidate is below [value_bound + offset_hi] (the wrap guard of
   Params.plan), so that bound's width is the slot width.  Recomputed on
   demand — a [select_record] re-plan changes it. *)
let packing_spec t =
  let s = t.session in
  let slot_bits =
    Bigint.num_bits (Bigint.add s.Params.value_bound s.Params.offset_hi)
  in
  (slot_bits, Paillier.pack_capacity t.pk ~slot_bits)

(* Packing is active when the server granted it AND the key leaves room
   for at least one slot (a 64-bit test key planned near its wrap guard
   has capacity 0 — fall back to the unpacked rounds silently). *)
let packing_active t = t.packing && snd (packing_spec t) >= 1

let precompute_randomness t count =
  if t.offline && count > 0 then
    Telemetry.span ~name:"client.offline.refill"
      ~attrs:
        [
          ("count", Telemetry.Int count);
          ("phase", Telemetry.Phase Telemetry.Offline);
        ]
      (fun () ->
        (* packed rounds take subgroup noise (SECURITY.md); a grant the
           key has no slot room for runs unpacked rounds on uniform noise *)
        let refill =
          if packing_active t then Paillier.pool_refill_fast else Paillier.pool_refill
        in
        let t0 = Telemetry.now () in
        refill ~workers:t.workers t.pk t.pool t.noise_rng count;
        Cost.add_client_offline t.cost (Telemetry.now () -. t0))

let check_own_bounds series max_value =
  match Series.find_outside series ~max_value with
  | None -> ()
  | Some (i, l, v) ->
    raise
      (Incompatible
         (Printf.sprintf "client coordinate %d of element %d is %d, outside [0, %d]"
            l i v max_value))

let plan_session ~params ~series ~server_length ~max_value ~modulus ~distance =
  Params.plan params ~max_value ~dimension:(Series.dimension series)
    ~client_length:(Series.length series) ~server_length ~modulus ~distance

let connect ?(params = Params.default) ?(offline = true) ?(packing = false)
    ?(query = false) ?(workers = Parallel.sequential) ~rng ~series ~max_value
    ~distance channel =
  check_own_bounds series max_value;
  (* Offer the channel's transport capabilities (CRC, resume) in Hello,
     and declare the client's matrix contribution (series length and
     dimension) so an admission-controlled server can price the session
     before any Paillier work. *)
  let offered =
    Channel.offered_flags channel
    lor (if packing then Message.flag_packing else 0)
    lor if query then Message.flag_catalog else 0
  in
  let spec =
    Some
      {
        Message.series_len = Series.length series;
        dimension = Series.dimension series;
      }
  in
  match Channel.request channel (Message.Hello { flags = offered; spec }) with
  | Message.Welcome
      { n; key_bits; series_length; dimension; max_value = server_max; flags; _ } ->
    if dimension <> Series.dimension series then
      raise
        (Incompatible
           (Printf.sprintf "dimension mismatch: client %d, server %d"
              (Series.dimension series) dimension));
    let pk = Paillier.public_of_modulus n ~bits:key_bits in
    let bound = Stdlib.max max_value server_max in
    let session =
      plan_session ~params ~series ~server_length:series_length ~max_value:bound
        ~modulus:pk.Paillier.n ~distance
    in
    (* the noise stream forks off the session rng here, after the
       handshake: every r^n draw — offline refill or online miss — comes
       from [noise_rng], every masking draw from [rng] *)
    let noise_rng = Secure_rng.of_seed_bytes (Secure_rng.bytes rng 32) in
    {
      series;
      channel;
      rng;
      noise_rng;
      pk;
      params;
      distance;
      max_value = bound;
      packing = packing && flags land Message.flag_packing <> 0;
      catalog_cap = query && flags land Message.flag_catalog <> 0;
      session;
      server_length = series_length;
      catalog = None;
      cost = Cost.create ();
      pool = Paillier.pool_create pk;
      offline;
      workers;
    }
  | _ -> raise (Channel.Protocol_error "expected Welcome after Hello")

(* --- similarity-search extension: record catalogs ----------------------- *)

let catalog t =
  match t.catalog with
  | Some lengths -> Array.copy lengths
  | None -> begin
    match Channel.request t.channel Message.Catalog_request with
    | Message.Catalog_reply lengths ->
      t.catalog <- Some lengths;
      Array.copy lengths
    | _ -> raise (Channel.Protocol_error "expected Catalog_reply")
  end

let select_record t index =
  let lengths = catalog t in
  if index < 0 || index >= Array.length lengths then
    invalid_arg
      (Printf.sprintf "Client.select_record: %d out of range [0, %d)" index
         (Array.length lengths));
  match Channel.request t.channel (Message.Select_request index) with
  | Message.Select_ack i when i = index ->
    t.server_length <- lengths.(index);
    (* the masking parameters depend on the matrix size: re-plan *)
    t.session <-
      plan_session ~params:t.params ~series:t.series ~server_length:lengths.(index)
        ~max_value:t.max_value ~modulus:t.pk.Paillier.n ~distance:t.distance
  | Message.Select_ack _ ->
    raise (Channel.Protocol_error "select acknowledged the wrong record")
  | _ -> raise (Channel.Protocol_error "expected Select_ack")

(* --- catalog extension: enumeration, sketches, verdicts ----------------- *)

let catalog_capable t = t.catalog_cap

let require_catalog t =
  if not t.catalog_cap then
    raise (Channel.Protocol_error "server did not grant the catalog capability")

let catalog_list t =
  require_catalog t;
  match Channel.request t.channel Message.Catalog_list_request with
  | Message.Catalog_list_reply { ids; lengths } ->
    if Array.length ids <> Array.length lengths then
      raise (Channel.Protocol_error "catalog-list ids/lengths mismatch");
    t.catalog <- Some lengths;
    (Array.copy ids, Array.copy lengths)
  | _ -> raise (Channel.Protocol_error "expected Catalog_list_reply")

let query_submit t ~segments ~band ~indices =
  require_catalog t;
  if segments <= 0 then invalid_arg "Client.query_submit: segments must be positive";
  if Array.length indices = 0 then
    invalid_arg "Client.query_submit: empty candidate set";
  let d = Series.dimension t.series in
  let per = segments * d in
  timed t Cost.Phase1 (fun () ->
      match
        Channel.request t.channel (Message.Query_submit { segments; band; indices })
      with
      | Message.Query_sketch sketches ->
        if Array.length sketches <> Array.length indices then
          raise (Channel.Protocol_error "sketch count differs from candidate count");
        Array.map
          (fun { Message.lo; hi } ->
            if Array.length lo <> per || Array.length hi <> per then
              raise (Channel.Protocol_error "sketch slot count mismatch");
            let wrap = Paillier.ciphertext_of_bigint t.pk in
            (Array.map wrap lo, Array.map wrap hi))
          sketches
      | Message.Error_reply m -> raise (Channel.Protocol_error m)
      | _ -> raise (Channel.Protocol_error "expected Query_sketch"))

(* Verdict round.  Each input ciphertext holds a signed threshold
   difference p in (-bound, bound) (centered residue mod n): negative
   means the candidate's lower bound stayed below the threshold.  The
   client multiplicatively blinds each difference — Enc(ρ·p + μ) with
   fresh ρ ∈ [2^(ρ_bits-1), 2^ρ_bits) and μ ∈ [0, ρ) — so the server's
   decryption reveals the sign and nothing else: ρ·p + μ keeps p's sign
   (μ < ρ) and stays under n/2 in magnitude because ρ_bits is sized to
   leave two spare bits.  Returns [None] without touching the network
   when the modulus is too small to blind meaningfully (< 16 bits of ρ);
   callers then keep every candidate. *)
let verdict_round t ~bound diffs =
  require_catalog t;
  let rho_bits = Bigint.num_bits t.pk.Paillier.n - 2 - Bigint.num_bits bound in
  if rho_bits < 16 then None
  else
    timed t Cost.Phase2 (fun () ->
        let client_ops = Cost.client_ops t.cost in
        let half = Bigint.shift_left Bigint.one (rho_bits - 1) in
        let blinded =
          Array.map
            (fun c ->
              let rho = Bigint.add half (Secure_rng.below t.rng half) in
              let mu = Secure_rng.below t.rng rho in
              client_ops.Cost.homomorphic <- client_ops.Cost.homomorphic + 2;
              let scaled = Paillier.scalar_mul t.pk c rho in
              Paillier.ciphertext_to_bigint (Paillier.add_plain t.pk scaled mu))
            diffs
        in
        match Channel.request t.channel (Message.Verdict_request blinded) with
        | Message.Verdict_reply survive ->
          if Array.length survive <> Array.length diffs then
            raise (Channel.Protocol_error "verdict count differs from candidate count");
          Some survive
        | Message.Error_reply m -> raise (Channel.Protocol_error m)
        | _ -> raise (Channel.Protocol_error "expected Verdict_reply"))

(* Auxiliary masking sessions: the pruning round masks lower-bound gap
   values, not DP-matrix entries, so it plans its own (β, γ) from an
   explicit bound and runs the standard extreme machinery under it.
   [t.session] is swapped for the duration — packing_spec and
   [extremes] both read it — and restored on any exit. *)
let plan_aux_session t ~value_bound =
  Params.plan_bound t.params ~value_bound ~modulus:t.pk.Paillier.n

let with_session t session f =
  let saved = t.session in
  t.session <- session;
  Fun.protect ~finally:(fun () -> t.session <- saved) f

(* --- phase 1 -------------------------------------------------------------- *)

type phase1_data = {
  server_sumsq : Paillier.ciphertext array;
  server_coords : Paillier.ciphertext array array;
}

let fetch_phase1 t =
  Telemetry.span ~name:"client.phase1.fetch"
    ~attrs:[ ("phase", Telemetry.Phase Telemetry.Phase1) ]
  @@ fun () ->
  timed t Cost.Phase1 (fun () ->
      let elements =
        match Channel.request t.channel Message.Phase1_request with
        | Message.Phase1_reply e -> e
        | _ -> raise (Channel.Protocol_error "expected Phase1_reply")
      in
      if Array.length elements <> t.server_length then
        raise (Channel.Protocol_error "phase1 element count differs from Welcome");
      let d = Series.dimension t.series in
      let wrap v = Paillier.ciphertext_of_bigint t.pk v in
      let server_sumsq = Array.map (fun e -> wrap e.Message.sum_sq) elements in
      let server_coords =
        Array.map
          (fun e ->
            if Array.length e.Message.coords <> d then
              raise (Channel.Protocol_error "phase1 coordinate count mismatch");
            Array.map wrap e.Message.coords)
          elements
      in
      { server_sumsq; server_coords })

(* Enc(δ²(x, y_j)) = Enc(Σ x²) · Enc(Σ y_j²) · Π_l Enc(y_jl)^(-2 x_l)
   (Section 3.2, Eq. 4).  [enc_x_sumsq] is the client's encryption of its
   own squared norm; it may be reused across a row — it never leaves the
   client unmasked, and outgoing candidates are re-randomized in Masking.
   Rows are pure (no counter updates): they fan out over the worker pool,
   with the homomorphic tally taken in bulk by the caller. *)
let cost_matrix_of t data =
  Telemetry.span ~name:"client.phase1.matrix"
    ~attrs:[ ("phase", Telemetry.Phase Telemetry.Phase1) ]
  @@ fun () ->
  timed t Cost.Phase1 (fun () ->
      let m = Series.length t.series in
      let d = Series.dimension t.series in
      (* Row norms are encrypted sequentially first (pool pops and any
         miss draws happen in row order, independent of the pool size);
         the scalar_mul-heavy cell evaluations then fan out per row. *)
      let rows =
        Array.init m (fun i ->
            let x = Series.get t.series i in
            let sum_sq = Array.fold_left (fun acc v -> acc + (v * v)) 0 x in
            (x, encrypt_online t (Bigint.of_int sum_sq)))
      in
      let client_ops = Cost.client_ops t.cost in
      client_ops.Cost.homomorphic <-
        client_ops.Cost.homomorphic + (m * t.server_length * (1 + (2 * d)));
      (* A coordinate x_l = 0 contributes c^0 = 1, so it is skipped;
         [factor j l v] is Enc(y_jl)^(-2v) in the session's profile. *)
      let cells factor =
        Parallel.map_array t.workers
          (fun (x, enc_x_sumsq) ->
            Array.init t.server_length (fun j ->
                let acc = ref (Paillier.add t.pk enc_x_sumsq data.server_sumsq.(j)) in
                for l = 0 to d - 1 do
                  if x.(l) <> 0 then acc := Paillier.add t.pk !acc (factor j l x.(l))
                done;
                !acc))
          rows
      in
      if packing_active t then begin
        (* packed profile: invert each server coordinate once (one
           modular inverse) so the per-cell factor is the small positive
           power [inv^(2 x_l)] instead of the full-width [n - 2 x_l]
           exponent that [scalar_mul c (-2 x_l)] pays.  Decrypts
           identically; ciphertext bytes differ, which the packed
           (distance-compared) profile permits. *)
        let inv_coords =
          Parallel.map_array t.workers
            (Array.map (Paillier.invert_ciphertext t.pk))
            data.server_coords
        in
        cells (fun j l v ->
            Paillier.scalar_mul t.pk inv_coords.(j).(l) (Bigint.of_int (2 * v)))
      end
      else begin
        (* Enc(y)^(-2x) is Enc(y)^(n - 2x): split it as the coordinate's
           base Enc(y)^(n - K), K = 2 max_value, times Enc(y)^(K - 2x).
           check_own_bounds keeps 0 <= x <= max_value, so the second
           exponent is short and non-negative, and a planned session has
           K < n.  One full-width power per server coordinate replaces
           one per (row, coordinate); the residues, and so the bytes, are
           unchanged.  The bases are built before the row fan-out, which
           fills each coordinate's Montgomery form on one worker. *)
        let k = 2 * t.max_value in
        let n_minus_k = Bigint.sub t.pk.Paillier.n (Bigint.of_int k) in
        let bases =
          Parallel.map_array t.workers
            (Array.map (fun c -> Paillier.scalar_mul t.pk c n_minus_k))
            data.server_coords
        in
        cells (fun j l v ->
            Paillier.add t.pk bases.(j).(l)
              (Paillier.scalar_mul t.pk data.server_coords.(j).(l)
                 (Bigint.of_int (k - (2 * v)))))
      end)

let fetch_cost_matrix t =
  let data = fetch_phase1 t in
  cost_matrix_of t data

(* Enc(δ²(y_j, gap)) for a public gap element, derived from the phase-1
   ciphertexts with no extra communication:
   δ²(y_j, g) = Σ y² - 2 Σ g_l y_jl + Σ g².  Used by secure ERP. *)
let gap_costs_of t data ~gap =
  timed t Cost.Phase1 (fun () ->
      let d = Series.dimension t.series in
      if Array.length gap <> d then
        invalid_arg "Client.gap_costs_of: gap dimension mismatch";
      Array.iter
        (fun g ->
          if g < 0 || g > t.max_value then
            invalid_arg "Client.gap_costs_of: gap outside the negotiated bound")
        gap;
      let gap_sumsq = Array.fold_left (fun acc v -> acc + (v * v)) 0 gap in
      let client_ops = Cost.client_ops t.cost in
      Array.init t.server_length (fun j ->
          let acc =
            ref (Paillier.add_plain t.pk data.server_sumsq.(j) (Bigint.of_int gap_sumsq))
          in
          client_ops.Cost.homomorphic <- client_ops.Cost.homomorphic + 1;
          for l = 0 to d - 1 do
            if gap.(l) <> 0 then begin
              let factor =
                Paillier.scalar_mul t.pk data.server_coords.(j).(l)
                  (Bigint.of_int (-2 * gap.(l)))
              in
              acc := Paillier.add t.pk !acc factor;
              client_ops.Cost.homomorphic <- client_ops.Cost.homomorphic + 2
            end
          done;
          !acc))

(* --- phases 2 and 3 -------------------------------------------------------- *)

(* The masked-extreme round: phase 2's secure minimum (Section 5.1) or
   phase 3's maximum (Section 6) of every instance, in one round trip.
   Each instance is masked as the paper's one-instance round masks it;
   only the framing differs — [Min_request]/[Max_request] for that round
   ([single], unpacked), one batch frame for many instances (the
   wavefront extension), one packed frame in the packed profile.

   All randomness is consumed sequentially up front — every masking plan
   (offsets, decoy sources, shuffle) in instance order, then every noise
   factor — and the rest is pure and fans out over the worker pool, so
   seeded transcripts are bit-identical at any pool size.  Masking and
   noise draws come from independent streams, so this is also the draw
   order of the paper's round, which interleaves them.

   Unpacked, every offset is encrypted under its own noise factor before
   it is folded into its source ciphertext.  Packed, offsets are added as
   plaintext constants, the candidates of all instances are packed
   [capacity] slots to a ciphertext in instance order, and each pack is
   re-randomized with ONE noise factor, which makes its noise uniform
   over every slot at once (SECURITY.md); the server then decrypts
   ceil(total/capacity) ciphertexts instead of one per candidate. *)
let extremes t ~extreme ~single instances =
  if single && Array.length instances <> 1 then
    invalid_arg "Client.extremes: ~single takes exactly one instance";
  if Array.length instances = 0 then [||]
  else
    timed t (match extreme with `Min -> Cost.Phase2 | `Max -> Cost.Phase3) @@ fun () ->
    let ops = Cost.client_ops t.cost in
    let plans =
      Array.map
        (fun inputs ->
          Masking.plan ~rng:t.rng ~session:t.session ~extreme
            ~n_inputs:(Array.length inputs))
        instances
    in
    let counts =
      Array.map2
        (fun plan inputs -> Masking.plan_encryptions plan ~n_inputs:(Array.length inputs))
        plans instances
    in
    let total, first = Array.fold_left_map (fun acc n -> (acc + n, acc)) 0 counts in
    let packing = if packing_active t then Some (packing_spec t) else None in
    let per_factor = match packing with Some (_, capacity) -> capacity | None -> 1 in
    let noise =
      Paillier.pool_take ~workers:t.workers t.pk t.pool t.noise_rng
        ((total + per_factor - 1) / per_factor)
    in
    sync_pool_misses t;
    (* one encryption per noise factor; one homomorphic op per offset
       folded in, and one more per slot packed *)
    ops.Cost.encryptions <- ops.Cost.encryptions + Array.length noise;
    ops.Cost.homomorphic <-
      (ops.Cost.homomorphic + if packing = None then total else 2 * total);
    (* Enc(m) under noise factor [u] *)
    let encrypt u m = Paillier.encrypt_with_rn t.pk ~rn:noise.(u) m in
    let apply fold =
      Parallel.map_array t.workers
        (fun i -> Masking.apply_plan plans.(i) instances.(i) ~fold:(fold i))
        (Array.init (Array.length instances) Fun.id)
    in
    let prepared, request =
      match packing with
      | None ->
        let prepared =
          apply (fun i ->
              let next = ref first.(i) in
              fun c r ->
                incr next;
                Paillier.add t.pk c (encrypt (!next - 1) r))
        in
        let sets =
          Array.map
            (fun p -> Array.map Paillier.ciphertext_to_bigint p.Masking.candidates)
            prepared
        in
        ( prepared,
          match (extreme, single) with
          | `Min, true -> Message.Min_request sets.(0)
          | `Max, true -> Message.Max_request sets.(0)
          | `Min, false -> Message.Batch_min_request sets
          | `Max, false -> Message.Batch_max_request sets )
      | Some (slot_bits, capacity) ->
        let prepared = apply (fun _ -> Paillier.add_plain t.pk) in
        let flat =
          Array.concat (Array.to_list (Array.map (fun p -> p.Masking.candidates) prepared))
        in
        (* Horner packing; multiplying in a fresh encryption of zero
           re-randomizes the pack *)
        let packed =
          Parallel.map_array t.workers
            (fun u ->
              let lo = u * capacity in
              let pack =
                Paillier.pack_ciphertexts t.pk ~slot_bits
                  (Array.sub flat lo (min capacity (total - lo)))
              in
              Paillier.ciphertext_to_bigint (Paillier.add t.pk pack (encrypt u Bigint.zero)))
            (Array.init (Array.length noise) Fun.id)
        in
        ( prepared,
          match extreme with
          | `Min -> Message.Packed_min_request { slot_bits; counts; packed }
          | `Max -> Message.Packed_max_request { slot_bits; counts; packed } )
    in
    let one = single && packing = None in
    let replies =
      match Channel.request t.channel request with
      | Message.Cipher_reply v when one -> [| v |]
      | Message.Batch_cipher_reply vs when not one ->
        if Array.length vs <> Array.length instances then
          raise (Channel.Protocol_error "batch reply count mismatch");
        vs
      | _ ->
        raise
          (Channel.Protocol_error
             (if one then "expected Cipher_reply" else "expected Batch_cipher_reply"))
    in
    Array.mapi
      (fun i v ->
        ops.Cost.homomorphic <- ops.Cost.homomorphic + 1;
        Masking.unmask ~pk:t.pk prepared.(i) (Paillier.ciphertext_of_bigint t.pk v))
      replies

(* Pool draws one protocol round consumes — the bridge between the
   engine's round plan and the active profile.  [sizes] lists
   the input count of each masked instance in the round: the default
   profile encrypts one offset per candidate; the packed profile draws
   one factor per packed ciphertext. *)
let round_randomness t sizes =
  let k = t.session.Params.params.Params.k in
  let slots = Array.fold_left (fun acc n -> acc + n + k - 1) 0 sizes in
  if packing_active t then
    let _, capacity = packing_spec t in
    (slots + capacity - 1) / capacity
  else slots

let add t c1 c2 =
  let client_ops = Cost.client_ops t.cost in
  client_ops.Cost.homomorphic <- client_ops.Cost.homomorphic + 1;
  Paillier.add t.pk c1 c2

let add_plain_big t c v =
  let client_ops = Cost.client_ops t.cost in
  client_ops.Cost.homomorphic <- client_ops.Cost.homomorphic + 1;
  Paillier.add_plain t.pk c v

let add_plain t c v = add_plain_big t c (Bigint.of_int v)

let scalar_mul t c v =
  let client_ops = Cost.client_ops t.cost in
  client_ops.Cost.homomorphic <- client_ops.Cost.homomorphic + 1;
  Paillier.scalar_mul t.pk c v

let encrypt_constant t v = encrypt_online t (Bigint.of_int v)

let reveal t c =
  timed t Cost.Phase2 (fun () ->
      match
        Channel.request t.channel
          (Message.Reveal_request (Paillier.ciphertext_to_bigint c))
      with
      | Message.Reveal_reply v -> v
      | _ -> raise (Channel.Protocol_error "expected Reveal_reply"))

let finish t = Channel.close t.channel

let packing = packing_active
