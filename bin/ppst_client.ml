(* The client party over TCP, verb-structured:

     ppst_client pair SERIES.csv     one secure pairwise distance
     ppst_client query SERIES.csv    secure 1-vs-N catalog search
     ppst_client catalog             enumerate the server's records
     ppst_client stats               live metrics snapshot
     ppst_client health              readiness probe *)

open Cmdliner

(* Three verdicts are final, and each has its own exit status so that
   scripts can tell them apart from a crypto failure and from plain retry
   exhaustion (75):
   - 69 (EX_UNAVAILABLE), a quota rejection: the server's admission
     control says this session's declared shape exceeds its limits, so
     retrying is pointless;
   - 76 (EX_PROTOCOL), a whole-server restart: the resume token's
     boot-id prefix names a dead incarnation, so no retry can ever
     reattach this session (the channel already failed fast instead of
     burning its retry budget) and the operator must start afresh;
   - 124, the convention timeout(1) established: the wall budget
     (--budget-s) ran out, and connects, rounds and recovery all stop at
     the deadline by design. *)
let fatal_exits f =
  try f () with
  | Ppst_transport.Channel.Quota_exceeded { quota; limit; requested } ->
    Logs.err (fun m ->
        m "rejected by server admission control: %s quota (limit %d, requested %d)"
          quota limit requested);
    exit 69
  | Ppst_transport.Channel.Resume_rejected reason
    when Ppst_transport.Channel.is_server_restarted reason ->
    Logs.err (fun m ->
        m "session lost: the server restarted and cannot resume it (%s); \
           run again to start a fresh session" reason);
    exit 76
  | Ppst_transport.Retry.Budget.Exceeded { budget_s } ->
    Logs.err (fun m ->
        m "wall budget of %.3f s exhausted; giving up" budget_s);
    exit 124

(* One secure session: connect with retry/backoff/breaker, run [f], then
   print the shared accounting.  Used by both the pair and query
   verbs. *)
let with_session ~host ~port ~k ~seed ~jobs ~retries ?budget ~query ~distance
    ~series_file f =
  if jobs < 1 then failwith "--jobs must be >= 1";
  if retries < 1 then failwith "--retries must be >= 1";
  let workers = Ppst_parallel.Pool.create jobs in
  let series = Ppst_timeseries.Csv.load series_file in
  let rng =
    match seed with
    | Some s -> Ppst_rng.Secure_rng.of_seed_string s
    | None -> Ppst_rng.Secure_rng.system ()
  in
  let params = Ppst.Params.make ~k () in
  let max_value = Stdlib.max 1 (Ppst_timeseries.Series.max_abs_value series) in
  (* One backoff policy for every way a session can fail to start:
     refused connects, a Busy server (its retry-after hint is honoured
     as a floor), a connection lost during the handshake.  The same
     policy then governs mid-session reconnect + resume inside the
     channel.  Backoff jitter gets its own rng stream so retries never
     perturb the protocol transcript of a --seed run. *)
  let policy =
    { Ppst_transport.Retry.default_policy with max_attempts = retries }
  in
  (* The breaker turns a run of shed answers into local waiting: after
     consecutive Busy/throttle verdicts it opens and later attempts
     sleep out the server's hinted cooldown without dialling in — one
     probe (half-open) tests recovery instead of a reconnect stampede. *)
  let breaker = Ppst_transport.Retry.Breaker.create () in
  let jitter_rng =
    match seed with
    | Some s -> Ppst_rng.Secure_rng.of_seed_string (s ^ "/backoff")
    | None -> Ppst_rng.Secure_rng.system ()
  in
  fatal_exits @@ fun () ->
  let connect_session () =
    let channel =
      Ppst_transport.Channel.connect ~retry:policy ~rng:jitter_rng ?budget
        ~host ~port ()
    in
    try
      ( channel,
        Ppst.Client.connect ~params ~query ~workers ~rng ~series ~max_value
          ~distance channel )
    with e ->
      (try Ppst_transport.Channel.close channel with _ -> ());
      raise e
  in
  let channel, client =
    try
      Ppst_transport.Retry.with_retry ~policy ~rng:jitter_rng ~breaker ?budget
        ~on_attempt:(fun ~attempt ~delay_s e ->
          Logs.warn (fun m ->
              m "session attempt %d failed (%s); retrying in %.2f s" attempt
                (Printexc.to_string e) delay_s))
        ~classify:(function
          | Ppst_transport.Channel.Busy { retry_after_s } ->
            `Retry_after retry_after_s
          | Ppst_transport.Channel.Connection_lost _
          | Ppst_transport.Channel.Frame_corrupt _
          (* a black-holed peer: the dial succeeded but the handshake
             never answered — retrying is what lets the wall budget
             (not this one stuck connection) decide when to give up *)
          | Ppst_transport.Channel.Timeout
          | Ppst_transport.Channel.Stalled -> `Retry
          | _ -> `Fail)
        connect_session
    with
    | Ppst_transport.Retry.Exhausted
        { attempts; last = Ppst_transport.Channel.Busy { retry_after_s } } ->
      Logs.err (fun m ->
          m "server still at capacity after %d attempt(s); retry in %.1f s"
            attempts retry_after_s);
      exit 75 (* EX_TEMPFAIL, as sysexits.h calls it *)
    | Ppst_transport.Retry.Exhausted { attempts; last } ->
      Logs.err (fun m ->
          m "no session after %d attempt(s): %s" attempts
            (Printexc.to_string last));
      exit 75
  in
  Ppst.Cost.set_jobs (Ppst.Client.cost client) jobs;
  Logs.info (fun m ->
      m "connected; server series length %d; session %a"
        (Ppst.Client.server_length client)
        Ppst.Params.pp_session (Ppst.Client.session client));
  let t0 = Ppst_telemetry.Telemetry.now () in
  f client series;
  let elapsed = Ppst_telemetry.Telemetry.now () -. t0 in
  Ppst.Client.finish client;
  Ppst_parallel.Pool.shutdown workers;
  (* the server ships its measured handler total in the final Bye_ack *)
  Printf.printf "server time (reported at close): %.3f s\n"
    (Ppst_transport.Channel.server_seconds channel);
  Printf.printf "elapsed: %.3f s\n" elapsed;
  Format.printf "communication: %a@." Ppst_transport.Stats.pp
    (Ppst_transport.Channel.stats channel);
  Format.printf "cost: %a@." Ppst.Cost.pp (Ppst.Client.cost client)

(* The one place the distance flags become a [Protocol.spec]; invalid
   combinations (a band on ERP, --wavefront on Euclidean) are refused by
   the spec's validation rather than dropped. *)
let spec_of_flags distance ~band ~gap ~wavefront series =
  let strategy = if wavefront then `Wavefront else `Full in
  let gap =
    match distance with
    | `Erp -> Some (Array.make (Ppst_timeseries.Series.dimension series) gap)
    | _ -> None
  in
  Ppst.Protocol.spec ?band ~strategy ?gap distance

let distance_name = function
  | `Dtw -> "DTW"
  | `Dfd -> "DFD"
  | `Erp -> "ERP"
  | `Euclidean -> "Euclidean"

(* Greppable one-line-per-candidate summary of everything a catalog
   scan could not resolve; [true] when anything is missing, so the
   caller can exit with the partial-result status once the session has
   been closed and the accounting printed. *)
let report_incomplete (report : Ppst.Query.report) =
  let inc = report.Ppst.Query.incomplete in
  Array.iter
    (fun (c : Ppst.Query.incomplete) ->
      Printf.printf "incomplete: idx=%d id=%s reason=%s\n" c.Ppst.Query.index
        c.Ppst.Query.id
        (Ppst.Query.reason_to_string c.Ppst.Query.reason))
    inc;
  if Array.length inc > 0 then
    Printf.printf "incomplete: %d of %d candidate(s) unresolved\n"
      (Array.length inc) report.Ppst.Query.total;
  Array.length inc > 0

let require_catalog client =
  if not (Ppst.Client.catalog_capable client) then
    failwith
      "server does not grant the catalog capability (too old, or catalog \
       queries disabled)"

(* --- pair: one secure pairwise distance ------------------------------------ *)

let pair_body distance band gap wavefront search partial client series =
  match distance with
  | `Subsequence ->
    if search || wavefront || band <> None then
      failwith "subsequence takes no --search, --band or --wavefront";
    let offset, best = Ppst.Secure_euclidean.best_window client in
    Printf.printf "best window offset = %d\n" offset;
    Printf.printf
      "secure best-window Euclidean distance (squared-Euclidean costs) = %s\n"
      (Ppst_bigint.Bigint.to_string best)
  | (`Dtw | `Dfd | `Erp | `Euclidean) as distance ->
    let spec = spec_of_flags distance ~band ~gap ~wavefront series in
    if search then begin
      (* the exhaustive scan: every record runs exactly, nothing pruned;
         one line per record in catalog order, then the nearest *)
      require_catalog client;
      let report = Ppst.Query.scan ~spec client in
      let by_index = Array.copy report.Ppst.Query.hits in
      Array.sort
        (fun (a : Ppst.Query.hit) (b : Ppst.Query.hit) ->
          compare a.Ppst.Query.index b.Ppst.Query.index)
        by_index;
      Array.iter
        (fun (h : Ppst.Query.hit) ->
          Printf.printf "record %d: distance %s\n" h.Ppst.Query.index
            (Ppst_bigint.Bigint.to_string h.Ppst.Query.distance))
        by_index;
      (match report.Ppst.Query.hits with
       | [||] ->
         if report.Ppst.Query.total = 0 then print_endline "empty catalog"
       | hits ->
         Printf.printf "nearest: record %d (distance %s)\n"
           hits.(0).Ppst.Query.index
           (Ppst_bigint.Bigint.to_string hits.(0).Ppst.Query.distance));
      partial := report_incomplete report
    end
    else
      Printf.printf "secure %s distance (squared-Euclidean costs) = %s\n"
        (distance_name distance)
        (Ppst_bigint.Bigint.to_string (Ppst.Protocol.runner_of_spec spec client))

let budget_of_flag = function
  | None -> None
  | Some s ->
    if s <= 0.0 then failwith "--budget-s must be positive";
    Some (Ppst_transport.Retry.Budget.create ~budget_s:s ())

let kind_of_distance : _ -> Ppst.Client.distance_kind = function
  | (`Dtw | `Dfd | `Erp | `Euclidean) as kind -> kind
  | `Subsequence -> `Euclidean

let run_pair host port series_file distance k band gap budget_s wavefront
    search seed jobs retries () =
  let budget = budget_of_flag budget_s in
  (* Partial results terminate the process with 77 — but only after the
     session has been closed and the accounting printed, so the flag is
     carried out of the session body. *)
  let partial = ref false in
  with_session ~host ~port ~k ~seed ~jobs ~retries ?budget ~query:search
    ~distance:(kind_of_distance distance) ~series_file
    (pair_body distance band gap wavefront search partial);
  if !partial then exit 77

(* --- query: secure 1-vs-N catalog search ----------------------------------- *)

let run_query host port series_file distance k band gap top within_r segments
    budget_s candidate_budget_s wavefront seed jobs retries () =
  if top < 1 then failwith "--top must be >= 1";
  let budget = budget_of_flag budget_s in
  let partial = ref false in
  with_session ~host ~port ~k ~seed ~jobs ~retries ?budget ~query:true
    ~distance ~series_file
    (fun client series ->
      require_catalog client;
      let spec = spec_of_flags distance ~band ~gap ~wavefront series in
      let report =
        match within_r with
        | Some r ->
          Ppst.Query.within ?segments ?budget ?candidate_budget_s ~spec
            ~radius:(Ppst_bigint.Bigint.of_int r) client
        | None ->
          Ppst.Query.top_k ?segments ?budget ?candidate_budget_s ~spec ~k:top
            client
      in
      Array.iter
        (fun (h : Ppst.Query.hit) ->
          Printf.printf "hit: record %d (id %s) distance %s\n"
            h.Ppst.Query.index h.Ppst.Query.id
            (Ppst_bigint.Bigint.to_string h.Ppst.Query.distance))
        report.Ppst.Query.hits;
      if Array.length report.Ppst.Query.hits = 0 then
        print_endline "no records within the radius";
      Printf.printf
        "catalog: %d candidate(s), %d pruned by the secure lower bound, %d \
         exact run(s)\n"
        report.Ppst.Query.total report.Ppst.Query.pruned
        report.Ppst.Query.evaluated;
      partial := report_incomplete report);
  if !partial then exit 77

(* --- argument terms --------------------------------------------------------- *)

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "h"; "host" ] ~docv:"HOST" ~doc:"Server host.")

let port =
  Arg.(value & opt int 7788 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")

let series_file_req =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SERIES.csv"
         ~doc:"Client time series (CSV).")

let distance =
  let enum_conv =
    Arg.enum
      [ ("dtw", `Dtw); ("dfd", `Dfd); ("erp", `Erp); ("euclidean", `Euclidean);
        ("subsequence", `Subsequence) ]
  in
  Arg.(value & opt enum_conv `Dtw & info [ "d"; "distance" ]
         ~docv:"dtw|dfd|erp|euclidean|subsequence" ~doc:"Distance function.")

let query_distance =
  let enum_conv =
    Arg.enum
      [ ("dtw", `Dtw); ("dfd", `Dfd); ("erp", `Erp); ("euclidean", `Euclidean) ]
  in
  Arg.(value & opt enum_conv `Dtw & info [ "d"; "distance" ]
         ~docv:"dtw|dfd|erp|euclidean" ~doc:"Distance function.")

let band =
  Arg.(value & opt (some int) None & info [ "band" ] ~docv:"B"
         ~doc:"Sakoe-Chiba band for DTW/DFD (unconstrained when omitted).")

let gap =
  Arg.(value & opt int 0 & info [ "gap" ] ~docv:"G"
         ~doc:"ERP gap element value (applied to every coordinate).")

let search =
  Arg.(value & flag & info [ "search" ]
         ~doc:"Scan every record in the server's catalog exactly, one line per \
               record in catalog order, and report the nearest.  Needs a server \
               that grants the catalog capability.")

let wavefront =
  Arg.(value & flag & info [ "wavefront" ]
         ~doc:"Batch each DP anti-diagonal into one round trip (big win on real networks).")

let top =
  Arg.(value & opt int 1 & info [ "top" ] ~docv:"K"
         ~doc:"Report the $(docv) nearest catalog records.")

let within_r =
  Arg.(value & opt (some int) None & info [ "within" ] ~docv:"R"
         ~doc:"Report every record within squared distance $(docv) instead of the nearest --top.")

let segments =
  Arg.(value & opt (some int) None & info [ "segments" ] ~docv:"S"
         ~doc:"Pruning sketch segments (default min(8, series length); more                segments prune harder but cost more per candidate).")

let budget_s =
  Arg.(value & opt (some float) None & info [ "budget-s" ] ~docv:"SECONDS"
         ~doc:"End-to-end wall budget for the whole operation: connects,                retries, every round and every reconnect+resume recovery                stop at the deadline.  Exit 124 when it runs out before the                query completes.")

let candidate_budget_s =
  Arg.(value & opt (some float) None & info [ "candidate-budget-s" ] ~docv:"SECONDS"
         ~doc:"Per-candidate wall budget inside a catalog query: a                candidate that cannot be resolved within $(docv) seconds is                skipped and reported as incomplete instead of stalling the                whole query.")

let k =
  Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Random-set size for the masking rounds (paper default 10).")

let seed =
  Arg.(value & opt (some string) None & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic randomness seed (testing only).")

let jobs =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Domain worker pool size for Paillier batch work (1 = sequential).")

let retries =
  Arg.(value & opt int 8 & info [ "retries" ] ~docv:"N"
         ~doc:"Attempts to establish (and, mid-session, to resume) the                session before giving up; exponential backoff with jitter                between attempts, honouring the server's Busy hint.")

(* --- commands ---------------------------------------------------------------- *)

let pair_cmd =
  let doc = "run one secure pairwise distance against the server's series" in
  Cmd.v (Cmd.info "pair" ~doc)
    Term.(const run_pair $ host $ port $ series_file_req $ distance $ k $ band
          $ gap $ budget_s $ wavefront $ search $ seed $ jobs $ retries
          $ Log_flags.setup)

let query_cmd =
  let doc =
    "secure 1-vs-N catalog search: prune candidates with an encrypted lower \
     bound, run the exact protocol on the survivors"
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run_query $ host $ port $ series_file_req $ query_distance $ k
          $ band $ gap $ top $ within_r $ segments $ budget_s
          $ candidate_budget_s $ wavefront $ seed $ jobs $ retries
          $ Log_flags.setup)

module Message = Ppst_transport.Message

(* The probe verbs: one request on a connection of its own, with no
   series and no session state; each verb only prints the reply.  Stats
   and health are answered even at capacity and while the server sheds
   load, so they report the truth exactly when the serving path refuses
   work.  Metrics and catalog are negotiated capabilities: Hello first
   offers [flag], which a server configured without them (--no-metrics,
   no catalog) does not grant. *)
let probe_cmd name ~doc ?flag request print =
  let run host port () =
    let channel = Ppst_transport.Channel.connect ~host ~port () in
    Option.iter
      (fun flag ->
        match
          Ppst_transport.Channel.request channel
            (Message.Hello { flags = flag; spec = None })
        with
        | Message.Welcome { flags; _ } when flags land flag <> 0 -> ()
        | Message.Welcome _ ->
          failwith (Printf.sprintf "server does not grant the %s capability" name)
        | _ -> failwith "expected Welcome")
      flag;
    let reply = Ppst_transport.Channel.request channel request in
    Ppst_transport.Channel.close channel;
    match reply with
    | Message.Error_reply m -> failwith m
    | reply -> print reply
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ host $ port $ Log_flags.setup)

let catalog_cmd =
  probe_cmd "catalog" ~doc:"list the server's catalog (index, id, length per record)"
    ~flag:Message.flag_catalog Message.Catalog_list_request (function
    | Message.Catalog_list_reply { ids; lengths } ->
      Array.iteri (fun i id -> Printf.printf "%d\t%s\t%d\n" i id lengths.(i)) ids
    | _ -> failwith "expected Catalog_list_reply")

let stats_cmd =
  probe_cmd "stats" ~doc:"fetch and print the server's live metrics snapshot"
    Message.Stats_req (function
    | Message.Stats_reply text -> print_string text
    | _ -> failwith "expected Stats_reply")

(* The same page the HTTP sidecar (ppst_server --metrics-port) serves to
   scrapers. *)
let metrics_cmd =
  probe_cmd "metrics"
    ~doc:"fetch the server's OpenMetrics exposition page (counters, \
          windowed rates and quantiles)"
    ~flag:Message.flag_metrics Message.Metrics_req (function
    | Message.Metrics_reply text -> print_string text
    | _ -> failwith "expected Metrics_reply")

(* The exit status is the probe status: 3 (degraded) means serving with
   durability lost, see PROTOCOL.md section 14. *)
let health_cmd =
  probe_cmd "health"
    ~doc:"readiness probe (exit 0 ready, 1 at capacity, 2 shedding, 3 degraded)"
    Message.Health_req (function
    | Message.Health_reply { status; active; capacity; retry_after_s } ->
      Printf.printf "status: %s\nactive: %d\ncapacity: %d\nretry_after_s: %.2f\n"
        (match status with
         | 0 -> "ready"
         | 1 -> "at-capacity"
         | 2 -> "shedding"
         | 3 -> "degraded"
         | _ -> "unknown")
        active capacity retry_after_s;
      exit status
    | _ -> failwith "expected Health_reply")

let doc = "secure time-series similarity client (series X owner, evaluator)"

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "ppst_client" ~doc)
          [ pair_cmd; query_cmd; catalog_cmd; stats_cmd; metrics_cmd; health_cmd ]))
