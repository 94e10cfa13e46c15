(* The server party over TCP: owns a time series (CSV) and the Paillier
   secret key, and serves many concurrent protocol sessions through
   Ppst_transport.Server_loop.  SIGINT/SIGTERM drain in-flight sessions
   and print the process totals before exit. *)

open Cmdliner
module Faults = Ppst_transport.Faults

let run port series_file catalog_dir key_file max_value seed sessions concurrency
    workers spool_dir idle_timeout deadline jobs chaos_profile chaos_seed
    disk_chaos resume_ttl no_resume no_crc max_cells max_series_len max_dim
    max_session_bytes max_session_frames rate_limit rate_burst shed_watermark
    watchdog_timeout metrics_port no_metrics () =
  if jobs < 1 then failwith "--jobs must be >= 1";
  if concurrency < 1 then failwith "--concurrency must be >= 1";
  if sessions < 0 then failwith "--sessions must be >= 0";
  if workers < 0 then failwith "--workers must be >= 0";
  if resume_ttl <= 0.0 then failwith "--resume-ttl-s must be positive";
  let positive name = function
    | Some v when v <= 0 -> failwith (name ^ " must be positive")
    | v -> v
  in
  let admission =
    {
      Ppst_transport.Admission.max_cells = positive "--max-cells" max_cells;
      max_series_len = positive "--max-series-len" max_series_len;
      max_dim = positive "--max-dim" max_dim;
      max_session_bytes = positive "--max-session-bytes" max_session_bytes;
      max_session_frames = positive "--max-session-frames" max_session_frames;
    }
  in
  let ratelimit =
    match rate_limit with
    | None -> None
    | Some rate ->
      if rate <= 0.0 then failwith "--rate-limit must be positive";
      let burst = Option.value rate_burst ~default:(Stdlib.max rate 1.0) in
      if burst < 1.0 then failwith "--rate-burst must be >= 1";
      Some { Ppst_transport.Ratelimit.rate_per_s = rate; burst }
  in
  (match shed_watermark with
   | Some w when w < 1 -> failwith "--shed-watermark must be >= 1"
   | _ -> ());
  (match watchdog_timeout with
   | Some s when s <= 0.0 -> failwith "--watchdog-timeout-s must be positive"
   | _ -> ());
  (* --chaos-profile and --disk-chaos: a profile that does not parse
     fails the boot, off installs nothing, and any other is built by
     [make] and announced. *)
  let chaos parse off print ~make ~target = function
    | None -> None
    | Some text ->
      (match parse text with
       | Error msg -> failwith msg
       | Ok profile when profile = off -> None
       | Ok profile ->
         let made = make profile in
         Logs.warn (fun m ->
             m "CHAOS MODE: injecting %s %s" (print profile) target);
         Some made)
  in
  let fault_profile =
    chaos Faults.profile_of_string Faults.Off Faults.profile_to_string
      chaos_profile
      ~target:(Printf.sprintf "(seed %d) into every session" chaos_seed)
      ~make:(function
        | Faults.Crash_at _ | Faults.Crash_write_at _ when workers = 0 ->
          failwith
            "--chaos-profile crash-at-N/crash-write-at-N requires \
             --workers >= 1: a single-process server would SIGKILL \
             itself with nobody left to restart it"
        | profile -> profile)
  in
  let make_faults ~restarted =
    match fault_profile with
    | Some (Faults.Crash_at _ | Faults.Crash_write_at _) when restarted ->
      (* a replacement worker must not re-arm the one-shot crash, or the
         deployment crash-loops instead of failing over *)
      None
    | Some profile -> Some (Faults.create ~seed:chaos_seed profile)
    | None -> None
  in
  let faults = make_faults ~restarted:false in
  let disk_faults =
    chaos Faults.Disk.profile_of_string Faults.Disk.Off
      Faults.Disk.profile_to_string disk_chaos ~make:Faults.Disk.create
      ~target:"into disk/fd operations"
  in
  (* Boot-time spool probe: an unwritable spool is a configuration error
     and must fail the boot, not surface as a degraded server at the
     first mid-session snapshot.  (The probe runs without the chaos
     injector: --disk-chaos simulates faults appearing after boot.) *)
  (match spool_dir with
   | None -> ()
   | Some dir ->
     (match Ppst_transport.Spool.validate ~dir with
      | Ok () -> ()
      | Error msg -> failwith (Printf.sprintf "--spool-dir %s: %s" dir msg)));
  (* three sources, one shape: --catalog serves a whole directory as an
     id-keyed store; a CSV with blank-line-separated blocks is served as
     a multi-record database (similarity-search mode); a plain CSV as a
     single series *)
  let records, ids =
    match (catalog_dir, series_file) with
    | Some _, Some _ ->
      failwith "give either SERIES.csv or --catalog DIR, not both"
    | Some dir, None ->
      let store = Ppst_catalog.Store.load_dir dir in
      (Ppst_catalog.Store.records store, Some (Ppst_catalog.Store.ids store))
    | None, Some file ->
      (Array.of_list (Ppst_timeseries.Csv.load_many file), None)
    | None, None -> failwith "SERIES.csv is required unless --catalog is given"
  in
  if Array.length records = 0 then failwith "no series in input file";
  let rng_of suffix =
    match seed with
    | Some s -> Ppst_rng.Secure_rng.of_seed_string (s ^ suffix)
    | None -> Ppst_rng.Secure_rng.system ()
  in
  let max_value =
    match max_value with
    | Some v -> v
    | None ->
      Array.fold_left
        (fun acc s -> Stdlib.max acc (Ppst_timeseries.Series.max_abs_value s))
        1 records
  in
  (* One key for the whole process; every session gets its own Server.t
     (its own record selection, counters and rng stream) sharing it. *)
  let sk =
    match key_file with
    | Some path ->
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let _pk, sk = Ppst_paillier.Paillier.private_key_of_string text in
      sk
    | None ->
      let bits = Ppst.Params.default.Ppst.Params.key_bits in
      Logs.info (fun m -> m "no --key given; generating a fresh %d-bit key" bits);
      let _pk, sk = Ppst_paillier.Paillier.keygen ~bits (rng_of "/keygen") in
      sk
  in
  (* The Domain pool has one work queue: safe to share only when a single
     session runs at a time.  Under real concurrency each session computes
     sequentially and the parallelism comes from the sessions themselves.
     Created lazily per process: in workers mode the supervisor parent
     must stay thread- and domain-free to fork safely, so only the
     worker children (post-fork) build their pools. *)
  let make_pool () =
    if concurrency = 1 && jobs > 1 then Some (Ppst_parallel.Pool.create jobs)
    else begin
      if jobs > 1 then
        Logs.warn (fun m ->
            m "--jobs %d ignored: per-session Domain pools are unsafe at \
               --concurrency %d (sessions already run in parallel)"
              jobs concurrency);
      None
    end
  in
  let make_handler pool ~id ~peer:_ =
    let workers =
      match pool with
      | Some pool -> pool
      | None -> Ppst_parallel.Pool.sequential
    in
    let server =
      Ppst.Server.create_db_with_key ?ids ~decryption:`Crt ~workers ~sk
        ~rng:(rng_of (Printf.sprintf "/session-%d" id))
        ~records ~max_value ()
    in
    (* Crash safety: the loop spools this after every counted round, and
       replays it into a fresh server when the session fails over to
       another worker process. *)
    {
      Ppst_transport.Server_loop.respond = Ppst.Server.handle server;
      snapshot = Some (fun () -> Ppst.Server.export_state server);
      restore = Some (Ppst.Server.restore_state server);
    }
  in
  (* The four exit lines, read by name from the server's process totals:
     the live registry, or the sum of the workers' drain reports.  Only
     [server.*] families are read; the supervisor parent never serves,
     so they are 0 in the registry every worker inherits at fork.  The
     parent's own Busy answers ([parent_busy], read from its registry
     alone: a re-forked worker inherits that count and reports it back)
     join the rejected count. *)
  let print_summary ?(parent_busy = 0) value =
    let count name = int_of_float (value ("server." ^ name)) in
    let shed = count "shed" in
    Format.printf "sessions: %d accepted, %d rejected (Busy), %d shed@."
      (count "sessions.accepted")
      (count "sessions.busy_rejected" + parent_busy + shed)
      shed;
    Format.printf "handler time (all sessions): %.3f s@." (value "server.handler.seconds");
    (* always 0: the key holder only encrypts and decrypts, every
       homomorphic operation is the client's *)
    Format.printf "crypto ops: %d encryptions, %d decryptions, 0 homomorphic@."
      (count "crypto.encryptions") (count "crypto.decryptions");
    Format.printf "communication (all sessions): %a@." Ppst_transport.Stats.pp
      (Ppst_transport.Stats.of_fields (fun field -> count ("traffic." ^ field)))
  in
  let lookup scalars name = Option.value (List.assoc_opt name scalars) ~default:0.0 in
  let on_session_end (s : Ppst_transport.Server_loop.session) =
    Logs.info (fun m ->
        m "session %d (%s) ended: %s, %d requests, %.3f s in handler" s.id
          s.peer
          (match s.outcome with
           | Ppst_transport.Server_loop.Completed -> "completed"
           | Idle_timeout -> "idle timeout"
           | Deadline_exceeded -> "deadline exceeded"
           | Client_error msg -> "client error: " ^ msg
           | Disconnected -> "disconnected (resumable)"
           | Quota_rejected quota -> "quota exceeded: " ^ quota
           | Slow_peer -> "slow peer (watchdog)")
          s.requests s.handler_seconds)
  in
  let config =
    {
      Ppst_transport.Server_loop.default_config with
      max_sessions = concurrency;
      max_total = (if sessions = 0 then None else Some sessions);
      spool_dir;
      idle_timeout_s = idle_timeout;
      deadline_s = deadline;
      resume_ttl_s = resume_ttl;
      enable_resume = not no_resume;
      enable_crc = not no_crc;
      faults;
      disk_faults;
      admission;
      ratelimit;
      shed_watermark;
      enable_metrics = not no_metrics;
      watchdog_timeout_s =
        (match watchdog_timeout with
         | Some _ as t -> t
         | None ->
           Ppst_transport.Server_loop.default_config
             .Ppst_transport.Server_loop.watchdog_timeout_s);
    }
  in
  if workers > 0 then begin
    (* Supervised multi-process serving: parent owns the listener and
       shards connections across forked workers; a SIGKILLed worker is
       re-forked and its spooled sessions fail over to its siblings. *)
    if metrics_port <> None then
      failwith "--metrics-port is not available with --workers (metrics are per-process)";
    if sessions > 0 then
      Logs.warn (fun m ->
          m "--sessions %d ignored with --workers: the supervisor serves \
             until SIGTERM/SIGINT" sessions);
    if spool_dir = None then
      Logs.warn (fun m ->
          m "--workers without --spool-dir: sessions cannot fail over \
             across worker crashes (resume state is per-process memory)");
    (* All worker generations share one boot id (minted in the parent
       before any fork), so a token minted before a worker crash still
       names this deployment's incarnation and fails over instead of
       being rejected as stale.  The id always comes from the system
       RNG — never from --seed — so every full server restart mints a
       fresh incarnation even in seeded runs, and tokens from the
       previous incarnation hit the typed server-restarted reject
       instead of burning the client's retry budget on the retryable
       "unknown or expired" path. *)
    let boot_id =
      Ppst_rng.Secure_rng.bytes (Ppst_rng.Secure_rng.system ()) 4
    in
    let listener, bound_port =
      Ppst_transport.Channel.listen ~backlog:64 ~port ()
    in
    let worker_config = { config with max_total = None } in
    let worker_main ~slot ~restarted ~control =
      let config = { worker_config with faults = make_faults ~restarted } in
      let rng =
        match seed with
        | Some s ->
          Some
            (Ppst_rng.Secure_rng.of_seed_string
               (Printf.sprintf "%s/worker-%d" s slot))
        | None -> None
      in
      let pool = make_pool () in
      let loop =
        Ppst_transport.Server_loop.create_worker ~config ~on_session_end ?rng
          ~boot_id ~slot ~workers ~control ~handler:(make_handler pool) ()
      in
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle
           (fun _ -> Ppst_transport.Server_loop.shutdown loop));
      Fun.protect
        ~finally:(fun () ->
          match pool with
          | Some pool -> Ppst_parallel.Pool.shutdown pool
          | None -> ())
        (fun () -> Ppst_transport.Server_loop.run loop)
    in
    let on_event = function
      | Ppst_transport.Supervisor.Worker_started { slot; pid; restarts } ->
        if restarts = 0 then Format.printf "worker %d: pid %d@." slot pid
        else
          Logs.info (fun m ->
              m "worker %d restarted: pid %d (restart #%d)" slot pid restarts)
      | Ppst_transport.Supervisor.Worker_exited { slot; pid; status; restarting }
        ->
        let signal_name s =
          if s = Sys.sigkill then "SIGKILL"
          else if s = Sys.sigterm then "SIGTERM"
          else if s = Sys.sigint then "SIGINT"
          else if s = Sys.sigsegv then "SIGSEGV"
          else if s = Sys.sigabrt then "SIGABRT"
          else string_of_int s
        in
        Logs.warn (fun m ->
            m "worker %d (pid %d) %s%s" slot pid
              (match status with
               | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
               | Unix.WSIGNALED s ->
                 Printf.sprintf "killed by %s" (signal_name s)
               | Unix.WSTOPPED s ->
                 Printf.sprintf "stopped by %s" (signal_name s))
              (if restarting then "; restarting" else ""))
    in
    Logs.info (fun m ->
        m "serving %d record(s), dim %d, max value %d, on port %d \
           (%d workers, concurrency %d each%s)"
          (Array.length records)
          (Ppst_timeseries.Series.dimension records.(0))
          max_value bound_port workers concurrency
          (match spool_dir with
           | Some dir -> Printf.sprintf ", spool %s" dir
           | None -> ""));
    Format.printf "listening on port %d with %d workers@." bound_port workers;
    let summary =
      Ppst_transport.Supervisor.run ~on_event
        ~drain_timeout_s:config.Ppst_transport.Server_loop.drain_timeout_s
        ?disk_faults ~listener ~workers ~worker_main ()
    in
    let reports =
      List.filter_map
        (fun (slot, blob) ->
          match Option.map Ppst_transport.Server_loop.decode_report blob with
          | Some report -> Some report
          | None ->
            Logs.warn (fun m -> m "worker %d sent no drain report" slot);
            None
          | exception Ppst_transport.Wire.Malformed _ ->
            Logs.warn (fun m -> m "worker %d: malformed drain report" slot);
            None)
        summary.Ppst_transport.Supervisor.reports
    in
    Logs.info (fun m ->
        m "done: %d worker report(s), %d restart(s)" (List.length reports)
          summary.Ppst_transport.Supervisor.restarts);
    print_summary
      ~parent_busy:
        (int_of_float
           (lookup (Ppst_telemetry.Metrics.scalars ()) "supervisor.busy_rejected"))
      (fun name ->
        List.fold_left (fun acc report -> acc +. lookup report name) 0.0 reports);
    Format.printf "supervisor restarts: %d@."
      summary.Ppst_transport.Supervisor.restarts
  end
  else begin
  let shared_pool = make_pool () in
  let handler = make_handler shared_pool in
  let loop =
    Ppst_transport.Server_loop.create ~config ~on_session_end ~port ~handler ()
  in
  Ppst_transport.Server_loop.install_signal_handlers loop;
  (* Sidecar scrape endpoint: plain HTTP on loopback, entirely outside the
     protocol socket, serving the same closed-vocabulary aggregates as a
     Metrics_req.  Off unless asked for. *)
  let metrics_endpoint =
    match metrics_port with
    | None -> None
    | Some _ when no_metrics ->
      failwith "--metrics-port conflicts with --no-metrics"
    | Some mp ->
      let ep = Ppst_transport.Metrics_endpoint.start ~port:mp () in
      Logs.info (fun m ->
          m "metrics endpoint on http://127.0.0.1:%d/metrics"
            (Ppst_transport.Metrics_endpoint.port ep));
      Format.printf "metrics port: %d@."
        (Ppst_transport.Metrics_endpoint.port ep);
      Some ep
  in
  Logs.info (fun m ->
      m "serving %d record(s), dim %d, max value %d, on port %d \
         (concurrency %d%s%s)"
        (Array.length records)
        (Ppst_timeseries.Series.dimension records.(0))
        max_value
        (Ppst_transport.Server_loop.port loop)
        concurrency
        (match idle_timeout with
         | Some s -> Printf.sprintf ", idle timeout %.1fs" s
         | None -> "")
        (match deadline with
         | Some s -> Printf.sprintf ", deadline %.1fs" s
         | None -> ""));
  Fun.protect
    ~finally:(fun () ->
      Option.iter Ppst_transport.Metrics_endpoint.stop metrics_endpoint;
      match shared_pool with
      | Some pool -> Ppst_parallel.Pool.shutdown pool
      | None -> ())
    (fun () -> Ppst_transport.Server_loop.run loop);
  print_summary (lookup (Ppst_telemetry.Metrics.scalars ()))
  end

let port =
  Arg.(value & opt int 7788 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port to listen on (0 picks an ephemeral port).")

let series_file =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"SERIES.csv"
         ~doc:"Server time series (CSV, one element per row).  Required                unless --catalog is given.")

let catalog_dir =
  Arg.(value & opt (some dir) None & info [ "catalog" ] ~docv:"DIR"
         ~doc:"Serve every *.csv in $(docv) as an id-keyed catalog                (1-vs-N query mode); record ids are the file basenames.")

let key_file =
  Arg.(value & opt (some file) None & info [ "k"; "key" ] ~docv:"FILE" ~doc:"Private key from ppst_keygen (fresh key when omitted).")

let max_value =
  Arg.(value & opt (some int) None & info [ "max-value" ] ~docv:"V" ~doc:"Advertised coordinate bound (default: actual series maximum).")

let seed =
  Arg.(value & opt (some string) None & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic randomness seed (testing only).")

let sessions =
  Arg.(value & opt int 0 & info [ "sessions" ] ~docv:"N"
         ~doc:"Total sessions to serve before exiting (0 = until SIGINT/SIGTERM).")

let concurrency =
  Arg.(value & opt int 4 & info [ "concurrency"; "max-sessions" ] ~docv:"N"
         ~doc:"Concurrent-session capacity; extra clients get a Busy reply with a retry-after hint.")

let workers =
  Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
         ~doc:"Supervised multi-process serving: fork $(docv) worker                processes and shard accepted connections across them                (resume tokens route by hash, everything else round-robins).                 A crashed worker is restarted under backoff; with                --spool-dir its in-flight sessions fail over to the other                workers.  0 (the default) serves single-process.")

let spool_dir =
  Arg.(value & opt (some string) None & info [ "spool-dir" ] ~docv:"DIR"
         ~doc:"Crash-safe session spool: snapshot every resumable session                to $(docv) (atomic rename + fsync) after each round, so a                session survives its worker process being killed and                resumes in another.")

let idle_timeout =
  Arg.(value & opt (some float) None & info [ "idle-timeout-s" ] ~docv:"S"
         ~doc:"Close a session after this many seconds of client silence.")

let deadline =
  Arg.(value & opt (some float) None & info [ "deadline-s" ] ~docv:"S"
         ~doc:"Close a session this many seconds after accept, no matter what.")

let jobs =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Domain worker pool size for Paillier batch work; only honoured at --concurrency 1 (the pool has one work queue).")

let chaos_profile =
  Arg.(value & opt (some string) None & info [ "chaos-profile" ] ~docv:"PROFILE"
         ~doc:"Deterministic fault injection for soak runs: drop-at-N,                drop-every-N, corrupt-every-N[:BYTE], delay-every-N[:MS],                short-every-N, dup-every-N or flaky-P.  Never use in                production.")

let chaos_seed =
  Arg.(value & opt int 1 & info [ "chaos-seed" ] ~docv:"SEED"
         ~doc:"Seed for the --chaos-profile injector (replays bit-identically).")

let disk_chaos =
  Arg.(value & opt (some string) None & info [ "disk-chaos" ] ~docv:"PROFILE"
         ~doc:"Deterministic disk/fd fault injection for degraded-mode                soaks: enospc-at-N, enospc-every-N, eio-fsync-at-N,                eio-fsync-every-N, torn-rename-at-N, emfile-at-N or                emfile-every-N.  Targets the session spool and the                accept/spawn paths; the server keeps serving (degraded                health) instead of crashing.  Never use in production.")

let resume_ttl =
  Arg.(value & opt float 300.0 & info [ "resume-ttl-s" ] ~docv:"S"
         ~doc:"How long a disconnected session's state stays resumable.")

let no_resume =
  Arg.(value & flag & info [ "no-resume" ]
         ~doc:"Never grant session resume (no tokens, no parked state).")

let no_crc =
  Arg.(value & flag & info [ "no-crc" ]
         ~doc:"Never grant CRC-32 frame integrity.")

let max_cells =
  Arg.(value & opt (some int) None & info [ "max-cells" ] ~docv:"N"
         ~doc:"Per-session DP-matrix budget: most min-selections (and, for                DFD, max-selections) a session may request.  An oversized                session is refused with Quota_exceeded before any Paillier                work runs.")

let max_series_len =
  Arg.(value & opt (some int) None & info [ "max-series-len" ] ~docv:"N"
         ~doc:"Longest client series length accepted at Hello.")

let max_dim =
  Arg.(value & opt (some int) None & info [ "max-dim" ] ~docv:"D"
         ~doc:"Highest element dimension accepted at Hello.")

let max_session_bytes =
  Arg.(value & opt (some int) None & info [ "max-session-bytes" ] ~docv:"B"
         ~doc:"Most request-frame bytes a session may send.")

let max_session_frames =
  Arg.(value & opt (some int) None & info [ "max-session-frames" ] ~docv:"N"
         ~doc:"Most request frames a session may send.")

let rate_limit =
  Arg.(value & opt (some float) None & info [ "rate-limit" ] ~docv:"R"
         ~doc:"Per-peer token bucket: sustained new-session rate per second                and per client address.  A peer over budget is answered Busy                with the exact bucket-recovery delay as the retry-after hint.")

let rate_burst =
  Arg.(value & opt (some float) None & info [ "rate-burst" ] ~docv:"B"
         ~doc:"Token-bucket burst capacity (default: max(--rate-limit, 1)).")

let shed_watermark =
  Arg.(value & opt (some int) None & info [ "shed-watermark" ] ~docv:"N"
         ~doc:"Load shedding: refuse new sessions (Busy + retry-after) while                at least $(docv) sessions are inside the crypto handler.")

let watchdog_timeout =
  Arg.(value & opt (some float) None & info [ "watchdog-timeout-s" ] ~docv:"S"
         ~doc:"Slow-peer watchdog: cut a connection whose frame stalls                mid-transfer for $(docv) seconds (default 30).")

let metrics_port =
  Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT"
         ~doc:"Serve an OpenMetrics/Prometheus text endpoint on                http://127.0.0.1:$(docv)/metrics (0 picks an ephemeral port,                printed at startup).  Exposes only the closed-vocabulary                counter/histogram aggregates — the same surface as the                in-protocol Metrics_req.")

let no_metrics =
  Arg.(value & flag & info [ "no-metrics" ]
         ~doc:"Never grant the metrics capability (Metrics_req is refused                even on the probe path).")

let cmd =
  let doc = "secure time-series similarity server (series Y owner, key holder)" in
  Cmd.v
    (Cmd.info "ppst_server" ~doc)
    Term.(const run $ port $ series_file $ catalog_dir $ key_file $ max_value $ seed
          $ sessions $ concurrency $ workers $ spool_dir $ idle_timeout
          $ deadline $ jobs
          $ chaos_profile $ chaos_seed $ disk_chaos $ resume_ttl $ no_resume
          $ no_crc
          $ max_cells $ max_series_len $ max_dim $ max_session_bytes
          $ max_session_frames $ rate_limit $ rate_burst $ shed_watermark
          $ watchdog_timeout $ metrics_port $ no_metrics $ Log_flags.setup)

let () = exit (Cmd.eval cmd)
