open Import

type result = {
  distance : Bigint.t;
  cost : Cost.t;
  stats : Stats.t;
  session : Params.session;
}

let distance_int r = Bigint.to_int_exn r.distance

let series_bound s = Stdlib.max 1 (Series.max_abs_value s)

let run_session : type a.
    distance_kind:Client.distance_kind ->
    runner:(Client.t -> a) ->
    ?params:Params.t -> ?seed:string -> ?max_value:int ->
    ?decryption:[ `Standard | `Crt ] -> ?offline:bool -> ?packing:bool ->
    ?jobs:int ->
    x:Series.t -> y:Series.t -> unit ->
    a * Cost.t * Stats.t * Params.session =
 fun ~distance_kind ~runner ?(params = Params.default) ?seed ?max_value
     ?decryption ?offline ?packing ?(jobs = 1) ~x ~y () ->
  let rng_of suffix =
    match seed with
    | Some s -> Secure_rng.of_seed_string (s ^ "/" ^ suffix)
    | None -> Secure_rng.system ()
  in
  let server_rng = rng_of "server" and client_rng = rng_of "client" in
  let server_max =
    match max_value with Some v -> v | None -> series_bound y
  in
  let client_max =
    match max_value with Some v -> v | None -> series_bound x
  in
  (* One shared pool: with a local channel both parties run in this
     process, and their parallel sections never overlap (strict
     request/reply alternation), so sharing lanes wastes nothing. *)
  let workers = Parallel.create jobs in
  (* Distances as small codes: the attr vocabulary is closed to numbers
     and phase tags, so even the span schema cannot leak free text. *)
  let distance_code =
    match distance_kind with `Dtw -> 0 | `Dfd -> 1 | `Erp -> 2 | `Euclidean -> 3
  in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown workers)
    (fun () ->
      Telemetry.span ~name:"protocol.session"
        ~attrs:
          [
            ("distance_code", Telemetry.Int distance_code);
            ("m", Telemetry.Int (Series.length x));
            ("n", Telemetry.Int (Series.length y));
            ("jobs", Telemetry.Int jobs);
          ]
      @@ fun () ->
      let server =
        Server.create ~params ?decryption ~workers ~rng:server_rng ~series:y
          ~max_value:server_max ()
      in
      let channel = Channel.local (Server.handle server) in
      let client =
        Client.connect ~params ?offline ?packing ~workers ~rng:client_rng
          ~series:x ~max_value:client_max ~distance:distance_kind channel
      in
      let value = runner client in
      Client.finish client;
      (* Fold the server's operation counters into the cost record (in a TCP
         deployment the server reports its own side). *)
      let cost = Client.cost client in
      Cost.set_jobs cost jobs;
      let server_ops = Server.ops server in
      let merged = Cost.server_ops cost in
      merged.Cost.encryptions <- merged.Cost.encryptions + server_ops.Cost.encryptions;
      merged.Cost.decryptions <- merged.Cost.decryptions + server_ops.Cost.decryptions;
      merged.Cost.homomorphic <- merged.Cost.homomorphic + server_ops.Cost.homomorphic;
      (value, cost, Channel.stats channel, Client.session client))

let pack (distance, cost, stats, session) = { distance; cost; stats; session }

type algo = [ `Dtw | `Dfd | `Erp | `Euclidean ]
type strategy = [ `Full | `Wavefront ]

type spec = {
  algo : algo;
  band : int option;
  strategy : strategy;
  gap : int array option;
  packing : bool;
}

let spec ?band ?(strategy = `Full) ?gap ?(packing = false) algo =
  { algo; band; strategy; gap; packing }

(* Validation happens here rather than in [spec] so record literals get
   the same checks as the smart constructor.  [None] is Euclidean, the
   one distance that is not a DP. *)
let engine_of_spec s =
  let rule =
    match (s.algo, s.gap) with
    | (`Dtw | `Dfd | `Euclidean), Some _ ->
      invalid_arg "Protocol.run: gap only applies to `Erp"
    | `Erp, None -> invalid_arg "Protocol.run: `Erp requires a gap element"
    | `Dtw, None -> Some Secure_dp.dtw
    | `Dfd, None -> Some Secure_dp.dfd
    | `Erp, Some gap -> Some (Secure_dp.erp ~gap)
    | `Euclidean, None -> None
  in
  let domain =
    match (s.band, s.algo) with
    | None, _ -> Secure_dp.Full
    | Some b, (`Dtw | `Dfd) -> Secure_dp.Band b
    | Some _, (`Erp | `Euclidean) ->
      invalid_arg
        (Printf.sprintf "Protocol.run: band does not apply to %s" (Client.show_kind s.algo))
  in
  let schedule =
    match (s.strategy, rule) with
    | `Full, _ -> Secure_dp.Row_major
    | `Wavefront, Some _ -> Secure_dp.Anti_diagonal
    | `Wavefront, None -> invalid_arg "Protocol.run: wavefront does not apply to `Euclidean"
  in
  Option.map (fun rule -> (rule, domain, schedule)) rule

let runner_of_spec s : Client.t -> Bigint.t =
  match engine_of_spec s with
  | Some (rule, domain, schedule) -> Secure_dp.run rule domain schedule
  | None -> Secure_euclidean.run

let distance_kind_of_algo : algo -> Client.distance_kind = fun a -> a

(* Closed-form count of protocol "values" for this implementation's exact
   message layout: phase 1 and the reveal, common to every spec, plus the
   masked rounds of the engine's plan (Euclidean has none). *)
let expected_values_transferred ~params ~m ~n ~d s =
  let masked =
    match engine_of_spec s with
    | Some (rule, domain, schedule) ->
      Secure_dp.masked_values rule domain schedule ~k:params.Params.k ~m ~n
    | None -> 0
  in
  (n * (d + 1)) + 2 + masked

(* The pruning stage of a 1-vs-N query, same conventions (both directions,
   unpacked profile).  Per candidate, per segment, per dimension: the two
   sketch ciphertexts in, one 3-way secure-max instance (3 + k - 1 masked
   candidates out, one result in); plus one blinded verdict ciphertext per
   candidate.  This is also the number the admission ledger's
   [declare_query] allowance is sized from: [candidates * (segments*d + 1)]
   chargeable cells. *)
let expected_query_values ~params ~candidates ~segments ~d =
  let k = params.Params.k in
  (candidates * segments * d * (k + 5)) + candidates

let run ~spec:s ?params ?seed ?max_value ?decryption ?offline ?jobs ~x ~y () =
  let runner = runner_of_spec s in
  let result =
    pack
      (run_session ~distance_kind:(distance_kind_of_algo s.algo) ~runner ?params
         ?seed ?max_value ?decryption ?offline ~packing:s.packing ?jobs ~x ~y ())
  in
  (* Cost attribution: every unpacked run is checked against the model
     (packed framing counts ciphertexts, not values). *)
  if not s.packing then begin
    let predicted =
      expected_values_transferred
        ~params:(Option.value params ~default:Params.default)
        ~m:(Series.length x) ~n:(Series.length y) ~d:(Series.dimension x) s
    in
    ignore
      (Ledger.record ~workload:Ledger.Pairwise ~predicted
         ~actual:(Stats.total_values result.stats))
  end;
  result

type windows_result = {
  window_distances : Bigint.t array;
  windows_cost : Cost.t;
  windows_stats : Stats.t;
}

let subsequence ?seed ?max_value ~x ~y () =
  let distances, cost, stats, _session =
    run_session ~distance_kind:`Euclidean ~runner:Secure_euclidean.sliding_windows
      ?seed ?max_value ~x ~y ()
  in
  { window_distances = distances; windows_cost = cost; windows_stats = stats }

