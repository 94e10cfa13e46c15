(* Secure 1-vs-N catalog search: a two-stage pipeline over a server
   catalog.  Stage 1 evaluates a cheap secure lower bound per candidate
   (the gap-sum statistic of [Lower_bound.gap_sum], computed under
   encryption from the server's per-segment sketch) and discards
   candidates that provably cannot beat the current threshold; stage 2
   runs the exact secure protocol only on the survivors.

   Soundness of the pruning rule (no false dismissals): for candidate
   series Y of the same length m as the query X, with G the gap-sum
   statistic and c_f the confidence factor (d*m for DTW / banded DTW /
   Euclidean, (d*m)^2 for DFD),

     D(X, Y) >= G^2 / c_f.

   Discarding when G >= tau_G + 1 with tau_G = isqrt(c_f * tau) implies
   G^2 > c_f * tau, hence D > tau: the candidate cannot enter a result
   set thresholded at tau.  ERP and length-mismatched candidates have no
   such bound and always go straight to the exact stage.

   What the pruning stage reveals is analysed in SECURITY.md: the server
   learns one survive/discard bit per candidate (blinded sign test); the
   client learns nothing beyond the distances of the candidates it
   evaluates exactly. *)

open Import

(* Query-path observability: stage-level counters and timings surfaced
   through Stats_req and the metrics endpoint.  All aggregate quantities
   the protocol already reveals (candidate counts and survive/prune bits
   are known to both parties; sketch bytes are wire accounting). *)
let m_submitted = Metrics.counter "query.submitted"
let m_candidates = Metrics.counter "query.candidates"
let m_pruned = Metrics.counter "query.pruned"
let m_survivors = Metrics.counter "query.survivors"
let m_sketch_bytes = Metrics.counter "query.sketch_bytes"
let m_incomplete = Metrics.counter "query.incomplete"
let h_stage1 = Metrics.histogram "query.stage1.seconds"
let h_stage2 = Metrics.histogram "query.stage2.seconds"

type hit = { index : int; id : string; distance : Bigint.t }

type incomplete_reason = Deadline | Retries | Server_error of string

let reason_to_string = function
  | Deadline -> "deadline"
  | Retries -> "retries"
  | Server_error m -> Printf.sprintf "server-error: %s" m

type incomplete = { index : int; id : string; reason : incomplete_reason }

type report = {
  hits : hit array;
  total : int;
  evaluated : int;
  pruned : int;
  incomplete : incomplete array;
}

let prunable_spec (s : Protocol.spec) =
  match s.Protocol.algo with `Erp -> false | `Dtw | `Dfd | `Euclidean -> true

(* The coupling window the sketch must cover: Euclidean couples in
   lockstep (band 0); DTW/DFD follow the spec's Sakoe–Chiba band (None =
   any partner). *)
let lb_band (s : Protocol.spec) =
  match s.Protocol.algo with
  | `Euclidean -> Some 0
  | `Dtw | `Dfd -> s.Protocol.band
  | `Erp -> assert false

let confidence_factor (s : Protocol.spec) ~d ~m =
  let dm = Bigint.of_int (d * m) in
  match s.Protocol.algo with `Dfd -> Bigint.mul dm dm | _ -> dm

let frame_widths ~segments ~length =
  Array.init segments (fun i ->
      Paa.frame_bounds ~segments ~length (i + 1)
      - Paa.frame_bounds ~segments ~length i)

(* Per-segment, per-dimension coordinate sums of the client's series —
   the S_x side of the gap-sum statistic.  Plaintext: the client owns
   this data. *)
let segment_sums t ~segments =
  let m = Client.client_length t in
  let d = Array.length (Client.client_element t 0) in
  let sums = Array.make_matrix segments d 0 in
  for s = 0 to segments - 1 do
    let a = Paa.frame_bounds ~segments ~length:m s
    and b = Paa.frame_bounds ~segments ~length:m (s + 1) in
    for i = a to b - 1 do
      let e = Client.client_element t i in
      for l = 0 to d - 1 do
        sums.(s).(l) <- sums.(s).(l) + e.(l)
      done
    done
  done;
  sums

(* One secure pruning round over [indices] (candidates of the client's
   length) against threshold [tau] on the squared distance.  Returns
   survive flags aligned with [indices]; conservatively all-true when
   nothing can be discarded or the modulus is too small for the blinded
   verdict. *)
let prune_round t (s : Protocol.spec) ~segments ~tau ~indices =
  let ni = Array.length indices in
  let m = Client.client_length t in
  let d = Array.length (Client.client_element t 0) in
  let v = Client.max_value t in
  let tau_g = Bigint.isqrt (Bigint.mul (confidence_factor s ~d ~m) tau) in
  (* G never exceeds d*m*V, so a cut above it can discard nothing: skip
     the round (and its traffic) entirely. *)
  let g_max = Bigint.of_int (d * m * v) in
  if Bigint.compare tau_g g_max >= 0 then Array.make ni true
  else begin
    let wire = Client.stats t in
    let t0 = Telemetry.now () in
    let v0 = Stats.total_values wire in
    let b0 = Stats.bytes_received wire in
    let sketches = Client.query_submit t ~segments ~band:(lb_band s) ~indices in
    Metrics.incr ~by:(Stats.bytes_received wire - b0) m_sketch_bytes;
    let widths = frame_widths ~segments ~length:m in
    let w_max = Array.fold_left Stdlib.max 1 widths in
    let sums = segment_sums t ~segments in
    (* Each 3-way max instance holds values in [0, 2*w_s*V] after the
       public shift C_s = w_s*V; mask them under a session planned for
       exactly that bound. *)
    let aux =
      Client.plan_aux_session t
        ~value_bound:(Bigint.of_int ((2 * w_max * v) + 1))
    in
    (* Enc(C_s) once per segment; sharing it across candidates is safe
       because the masking round re-randomizes every instance. *)
    let enc_shift =
      Array.init segments (fun si -> Client.encrypt_constant t (widths.(si) * v))
    in
    let per = segments * d in
    let instances = Array.make (ni * per) [||] in
    Array.iteri
      (fun c (lo, hi) ->
        for si = 0 to segments - 1 do
          let w = widths.(si) in
          let cs = w * v in
          for l = 0 to d - 1 do
            let idx = (si * d) + l in
            let sx = sums.(si).(l) in
            (* max(S_x - w*Hi, w*Lo - S_x, 0) + C_s, via the shared
               shifted zero candidate Enc(C_s). *)
            let a1 =
              Client.add_plain_big t
                (Client.scalar_mul t hi.(idx) (Bigint.of_int (-w)))
                (Bigint.of_int (sx + cs))
            in
            let a2 =
              Client.add_plain_big t
                (Client.scalar_mul t lo.(idx) (Bigint.of_int w))
                (Bigint.of_int (cs - sx))
            in
            instances.((c * per) + idx) <- [| a1; a2; enc_shift.(si) |]
          done
        done)
      sketches;
    let maxes =
      Client.with_session t aux (fun () ->
          Client.extremes t ~extreme:`Max ~single:false instances)
    in
    (* Sum the per-(segment, dimension) maxima: Sigma_s d*C_s = d*m*V, so
       the fold yields Enc(G + d*m*V); subtracting d*m*V + tau_G + 1
       leaves the signed difference G - (tau_G + 1): negative iff the
       candidate survives. *)
    let cut = Bigint.add g_max (Bigint.succ tau_g) in
    let diffs =
      Array.init ni (fun c ->
          let base = c * per in
          let acc = ref maxes.(base) in
          for j = 1 to per - 1 do
            acc := Client.add t !acc maxes.(base + j)
          done;
          Client.add_plain_big t !acc (Bigint.neg cut))
    in
    let bound = Bigint.succ (Bigint.max g_max (Bigint.succ tau_g)) in
    let verdict = Client.verdict_round t ~bound diffs in
    Metrics.observe h_stage1 (Telemetry.now () -. t0);
    match verdict with
    | Some survive ->
      (* The full round ran, so its wire cost must match the closed form
         exactly — the predicted-vs-actual ledger check of this query. *)
      let predicted =
        Protocol.expected_query_values ~params:(Client.params t)
          ~candidates:ni ~segments ~d
      in
      ignore
        (Ledger.record ~workload:Ledger.Query ~predicted
           ~actual:(Stats.total_values wire - v0));
      survive
    | None ->
      (* modulus too small to blind the verdict: the round was cut short
         before the verdict frame, so the closed form does not apply *)
      Array.make ni true
  end

(* Degraded-mode machinery.  A candidate whose exact run dies on a
   transport-class failure is recorded in [incomplete] and skipped
   instead of sinking the whole query; anything else (Invalid_argument,
   logic bugs) still propagates. *)
let reason_of_exn = function
  | Retry.Budget.Exceeded _ | Channel.Timeout | Channel.Stalled ->
    Some Deadline
  | Retry.Exhausted _ | Retry.Breaker.Open_circuit _ | Channel.Busy _
  | Channel.Connection_lost _ | Channel.Frame_corrupt _ ->
    Some Retries
  | Channel.Protocol_error m | Channel.Resume_rejected m ->
    Some (Server_error m)
  | _ -> None

(* Per-query budget harness.  [budget] (whole query) is installed on the
   client's channel for the duration; [candidate_budget_s] derives a
   fresh sub-budget per exact run so one stuck candidate cannot eat the
   whole allowance.  [guard i f] runs one candidate under that regime:
   [Some d] on success, [None] with an [incomplete] record otherwise. *)
let budget_guard ?budget ?candidate_budget_s t =
  (match candidate_budget_s with
  | Some s when s <= 0.0 ->
    invalid_arg "Query: candidate_budget_s must be positive"
  | _ -> ());
  let ch = Client.channel t in
  let saved = Channel.budget ch in
  (* An explicit query budget overrides whatever the channel carried;
     otherwise the channel's own budget (from [Channel.connect
     ?budget]) keeps governing. *)
  let outer = match budget with Some _ -> budget | None -> saved in
  (match budget with Some _ -> Channel.set_budget ch budget | None -> ());
  let incomplete = ref [] in
  let skip i reason =
    Metrics.incr m_incomplete;
    incomplete := { index = i; id = ""; reason } :: !incomplete
  in
  let expired () =
    match outer with Some b -> Retry.Budget.expired b | None -> false
  in
  let sub_budget () =
    match candidate_budget_s with
    | None -> None
    | Some s ->
      Some
        (match outer with
        | Some b -> Retry.Budget.sub b ~budget_s:s
        | None -> Retry.Budget.create ~budget_s:s ())
  in
  let guard i f =
    if expired () then begin
      skip i Deadline;
      None
    end
    else begin
      (match sub_budget () with
      | None -> ()
      | Some sb -> Channel.set_budget ch (Some sb));
      let restore () = Channel.set_budget ch outer in
      match f () with
      | d ->
        restore ();
        Some d
      | exception e ->
        restore ();
        (match reason_of_exn e with
        | Some r ->
          skip i r;
          None
        | None -> raise e)
    end
  in
  let restore_saved () = Channel.set_budget ch saved in
  let incomplete_of ids =
    let arr =
      !incomplete
      |> List.map (fun inc -> { inc with id = ids.(inc.index) })
      |> Array.of_list
    in
    Array.sort (fun a b -> Stdlib.compare a.index b.index) arr;
    arr
  in
  (guard, incomplete_of, restore_saved)

(* Stage-1 failure degrades to the exhaustive scan: an all-true verdict
   is always sound (pruning is an optimisation), so a recoverable
   transport failure mid-round must never fail the query. *)
let prune_round_safe t s ~segments ~tau ~indices =
  match prune_round t s ~segments ~tau ~indices with
  | survive -> survive
  | exception e when reason_of_exn e <> None ->
    Array.make (Array.length indices) true

let check_segments ~segments ~m =
  if segments < 1 || segments > m then
    invalid_arg
      (Printf.sprintf "Query: segments = %d outside [1, %d]" segments m)

let default_segments m = Stdlib.min 8 m

(* Exact stage: switch the active record and run the spec's driver. *)
let eval_exact t runner evaluated index =
  incr evaluated;
  Client.select_record t index;
  let t0 = Telemetry.now () in
  let d = runner t in
  Metrics.observe h_stage2 (Telemetry.now () -. t0);
  d

let count_survivors survive =
  let surv = Array.fold_left (fun a b -> if b then a + 1 else a) 0 survive in
  Metrics.incr ~by:surv m_survivors;
  Metrics.incr ~by:(Array.length survive - surv) m_pruned

let sort_hits hits =
  Array.sort
    (fun a b ->
      match Bigint.compare a.distance b.distance with
      | 0 -> Stdlib.compare a.index b.index
      | c -> c)
    hits;
  hits

let partition_candidates t (s : Protocol.spec) lengths =
  let m = Client.client_length t in
  let can_prune = prunable_spec s in
  let prunable = ref [] and unprunable = ref [] in
  Array.iteri
    (fun i len ->
      if can_prune && len = m then prunable := i :: !prunable
      else unprunable := i :: !unprunable)
    lengths;
  (List.rev !prunable, List.rev !unprunable)

let rec split_at n = function
  | rest when n <= 0 -> ([], rest)
  | [] -> ([], [])
  | x :: tl ->
    let taken, rest = split_at (n - 1) tl in
    (x :: taken, rest)

(* The frame every query mode shares: validation, budgets, catalog
   enumeration, exact runs under the per-candidate guard, and the report.
   [select] decides which candidates run exactly ([eval]) and which go
   through one pruning round against a threshold ([prune]); [found]
   lists the distances resolved so far.  Exact results are kept when
   [keep] accepts them. *)
let run_query ?segments ?budget ?candidate_budget_s ~spec:(s : Protocol.spec) ~keep
    t select =
  let runner = Protocol.runner_of_spec s in
  Client.require_plan t s.Protocol.algo;
  let m = Client.client_length t in
  let segments =
    match segments with
    | None -> default_segments m
    | Some s ->
      check_segments ~segments:s ~m;
      s
  in
  let guard, incomplete_of, restore_budget =
    budget_guard ?budget ?candidate_budget_s t
  in
  Fun.protect ~finally:restore_budget @@ fun () ->
  let ids, lengths = Client.catalog_list t in
  let total = Array.length ids in
  Metrics.incr m_submitted;
  Metrics.incr ~by:total m_candidates;
  let evaluated = ref 0 and pruned = ref 0 in
  let results = ref [] in
  let eval i =
    match guard i (fun () -> eval_exact t runner evaluated i) with
    | Some d when keep d -> results := (i, d) :: !results
    | Some _ | None -> ()
  in
  let prune ~tau candidates =
    let indices = Array.of_list candidates in
    let survive = prune_round_safe t s ~segments ~tau ~indices in
    count_survivors survive;
    Array.iteri (fun j i -> if survive.(j) then eval i else incr pruned) indices
  in
  select ~lengths ~eval ~prune ~found:(fun () -> List.map snd !results);
  let hits =
    !results
    |> List.map (fun (i, d) -> { index = i; id = ids.(i); distance = d })
    |> Array.of_list |> sort_hits
  in
  {
    hits;
    total;
    evaluated = !evaluated;
    pruned = !pruned;
    incomplete = incomplete_of ids;
  }

let top_k ?segments ?budget ?candidate_budget_s ~spec ~k t =
  if k <= 0 then invalid_arg "Query.top_k: k must be positive";
  let report =
    run_query ?segments ?budget ?candidate_budget_s ~spec ~keep:(fun _ -> true) t
      (fun ~lengths ~eval ~prune ~found ->
        let prunable, unprunable = partition_candidates t spec lengths in
        (* Every unprunable candidate must be evaluated exactly anyway;
           their distances double as threshold seeds. *)
        List.iter eval unprunable;
        (* Seed the threshold: exact runs on leading prunable candidates
           until k distances are known. *)
        let seeds, rest = split_at (k - List.length (found ())) prunable in
        List.iter eval seeds;
        match rest with
        | [] -> ()
        | rest ->
          let distances = List.sort Bigint.compare (found ()) in
          if List.length distances < k then
            (* Seed shortfall — some seeds came back incomplete, so there
               is no sound threshold to prune against.  Degrade to the
               exhaustive scan; the per-candidate guard still applies. *)
            List.iter eval rest
          else prune ~tau:(List.nth distances (k - 1)) rest)
  in
  { report with hits = Array.sub report.hits 0 (Stdlib.min k (Array.length report.hits)) }

let within ?segments ?budget ?candidate_budget_s ~spec ~radius t =
  if Bigint.compare radius Bigint.zero < 0 then
    invalid_arg "Query.within: radius must be non-negative";
  run_query ?segments ?budget ?candidate_budget_s ~spec
    ~keep:(fun d -> Bigint.compare d radius <= 0)
    t
    (fun ~lengths ~eval ~prune ~found:_ ->
      let prunable, unprunable = partition_candidates t spec lengths in
      List.iter eval unprunable;
      if prunable <> [] then prune ~tau:radius prunable)

let scan ~spec t =
  run_query ~spec ~keep:(fun _ -> true) t
    (fun ~lengths ~eval ~prune:_ ~found:_ ->
      Array.iteri (fun i _ -> eval i) lengths)

(* In-process conveniences, mirroring [Protocol.run]: stand up a
   store-backed server on a loopback channel and drive a query against
   it. *)

let with_query_session ~(s : Protocol.spec) ?seed ?max_value ~x ~store f =
  let rng_of suffix =
    match seed with
    | Some s -> Secure_rng.of_seed_string (s ^ "/" ^ suffix)
    | None -> Secure_rng.system ()
  in
  let server_rng = rng_of "server" and client_rng = rng_of "client" in
  let bound =
    match max_value with
    | Some v -> v
    | None ->
      Stdlib.max 1 (Stdlib.max (Series.max_abs_value x) (Store.max_abs_value store))
  in
  let server = Server.of_store ~rng:server_rng ~store ~max_value:bound () in
  let channel = Channel.local (Server.handle server) in
  let client =
    Client.connect ~packing:s.Protocol.packing ~query:true ~rng:client_rng
      ~series:x ~max_value:bound ~distance:s.Protocol.algo channel
  in
  let result = f client in
  Client.finish client;
  (result, Channel.stats channel)

let run_top_k ~spec ?seed ?max_value ~k ~x ~store () =
  with_query_session ~s:spec ?seed ?max_value ~x ~store (fun client ->
      top_k ~spec ~k client)

let run_within ~spec ?segments ?seed ~radius ~x ~store () =
  with_query_session ~s:spec ?seed ~x ~store (fun client ->
      within ?segments ~spec ~radius client)
