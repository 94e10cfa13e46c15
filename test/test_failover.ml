(* Crash-tolerance suite: the serializable session snapshot and its
   codecs, the crash-safe spool, SCM_RIGHTS fd passing, the failover
   matrices (a seeded 16x16 DTW session cut at every frame index must
   still reveal the bit-identical distance through spool failover — in
   one process, with a fresh worker loop taking over; the 1-vs-8 query
   cut by a real SIGKILL at every frame index; and supervised
   cross-worker spot checks), atomic catalog persistence, per-line
   telemetry flushing, lazy resume-table sweeping on the accept path,
   and the whole-server-restart fail-fast reject. *)

open Ppst.Import
open Ppst_transport

let eq_bi = Alcotest.testable Ppst_bigint.Bigint.pp Ppst_bigint.Bigint.equal
let seeded s = Ppst_rng.Secure_rng.of_seed_string s

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let counter = ref 0 in
  fun ?(base = Filename.get_temp_dir_name ()) tag ->
    incr counter;
    let dir =
      Filename.concat base
        (Printf.sprintf "ppst-failover-%d-%s-%d" (Unix.getpid ()) tag !counter)
    in
    rm_rf dir;
    dir

(* A memory-backed directory where the system has one: the in-process
   matrix checks failover logic, not disk durability, and a spooled
   round costs two fsyncs. *)
let memory_base =
  if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then "/dev/shm"
  else Filename.get_temp_dir_name ()

(* --- snapshot codec ---------------------------------------------------------- *)

let sample_snapshot =
  {
    Snapshot.token = String.init 16 (fun i -> Char.chr (i * 11 land 0xff));
    granted = 0x33;
    server_rounds = 412;
    last_reply = "\x8a\x01\x02\x03 encoded reply bytes";
    requests = 17;
    handler_seconds = 0.03125;
    server_len = 16;
    catalog = Some [| 4; 9; 16 |];
    admission = "admission-ledger-blob";
    app = "application-state-blob";
  }

let test_snapshot_roundtrip () =
  let blob = Snapshot.encode sample_snapshot in
  let got = Snapshot.decode blob in
  Alcotest.(check string) "token" sample_snapshot.Snapshot.token got.Snapshot.token;
  Alcotest.(check int) "granted" sample_snapshot.Snapshot.granted got.Snapshot.granted;
  Alcotest.(check int) "rounds" sample_snapshot.Snapshot.server_rounds
    got.Snapshot.server_rounds;
  Alcotest.(check string) "reply" sample_snapshot.Snapshot.last_reply
    got.Snapshot.last_reply;
  Alcotest.(check int) "requests" sample_snapshot.Snapshot.requests
    got.Snapshot.requests;
  Alcotest.(check (float 0.0)) "handler seconds"
    sample_snapshot.Snapshot.handler_seconds got.Snapshot.handler_seconds;
  Alcotest.(check int) "server len" sample_snapshot.Snapshot.server_len
    got.Snapshot.server_len;
  (match got.Snapshot.catalog with
   | Some a -> Alcotest.(check (array int)) "catalog" [| 4; 9; 16 |] a
   | None -> Alcotest.fail "catalog lost");
  Alcotest.(check string) "admission" sample_snapshot.Snapshot.admission
    got.Snapshot.admission;
  Alcotest.(check string) "app" sample_snapshot.Snapshot.app got.Snapshot.app;
  (* no-catalog variant *)
  let none = { sample_snapshot with Snapshot.catalog = None } in
  Alcotest.(check bool) "no catalog" true
    ((Snapshot.decode (Snapshot.encode none)).Snapshot.catalog = None)

let test_snapshot_rejects_garbage () =
  (match Snapshot.decode "" with
   | _ -> Alcotest.fail "empty blob accepted"
   | exception Wire.Malformed _ -> ());
  (* wrong version byte *)
  let blob = Snapshot.encode sample_snapshot in
  let mutated = Bytes.of_string blob in
  Bytes.set mutated 0 '\xEE';
  (match Snapshot.decode (Bytes.to_string mutated) with
   | _ -> Alcotest.fail "future version accepted"
   | exception Wire.Malformed _ -> ());
  (* truncation anywhere must surface as Malformed, never a crash *)
  for cut = 0 to String.length blob - 1 do
    match Snapshot.decode (String.sub blob 0 cut) with
    | _ -> ()
    | exception Wire.Malformed _ -> ()
  done

(* --- admission ledger export/import ------------------------------------------ *)

let test_admission_export_import () =
  let limits =
    {
      Admission.max_cells = Some 100;
      max_series_len = Some 64;
      max_dim = Some 4;
      max_session_bytes = Some 10_000;
      max_session_frames = Some 50;
    }
  in
  let adm = Admission.create limits in
  (match
     Admission.declare adm
       ~spec:{ Message.series_len = 6; dimension = 1 }
       ~server_len:16
   with
   | Admission.Admit -> ()
   | Admission.Reject _ -> Alcotest.fail "declare refused");
  (match Admission.charge_cells adm ~kind:`Min ~count:60 ~server_len:16 with
   | Admission.Admit -> ()
   | Admission.Reject _ -> Alcotest.fail "first charge refused");
  ignore (Admission.charge_frame adm ~bytes:4_000);
  (* the imported ledger must continue enforcement where the original
     stood: 60 of 100 cells are spent, so +50 must be refused *)
  let blob = Admission.export adm in
  (* a rejected charge still records the attempt, so each probe gets its
     own rehydrated ledger *)
  (match
     Admission.charge_cells (Admission.import limits blob) ~kind:`Min ~count:50
       ~server_len:16
   with
   | Admission.Reject _ -> ()
   | Admission.Admit -> Alcotest.fail "imported ledger forgot spent cells");
  (match
     Admission.charge_cells (Admission.import limits blob) ~kind:`Min ~count:36
       ~server_len:16
   with
   | Admission.Admit -> ()
   | Admission.Reject _ -> Alcotest.fail "imported ledger over-charges");
  (match Admission.import limits "garbage" with
   | _ -> Alcotest.fail "garbage ledger accepted"
   | exception Wire.Malformed _ -> ())

(* --- server application-state codec ------------------------------------------ *)

let test_server_state_roundtrip () =
  let sk_rng = seeded "state-codec/keygen" in
  let _pk, sk =
    Ppst_paillier.Paillier.keygen
      ~bits:Ppst.Params.default.Ppst.Params.key_bits sk_rng
  in
  let records =
    [|
      Series.of_list [ 1; 2; 3; 4 ];
      Series.of_list [ 5; 6; 7; 8 ];
      Series.of_list [ 9; 8; 7; 6 ];
    |]
  in
  let make () =
    Ppst.Server.create_db_with_key ~sk ~rng:(seeded "state-codec/session")
      ~records ~max_value:9 ()
  in
  let a = make () in
  let blob = Ppst.Server.export_state a in
  let b = make () in
  Ppst.Server.restore_state b blob;
  Alcotest.(check string) "restore is a fixed point" blob
    (Ppst.Server.export_state b);
  (* a selected index beyond the record count must be refused: the
     snapshot came from a different catalog *)
  let w = Wire.writer () in
  Wire.put_u32 w 7;
  Wire.put_u32 w 0;
  Wire.put_u32 w 0;
  Wire.put_u32 w 0;
  Wire.put_u32 w 0;
  (match Ppst.Server.restore_state (make ()) (Wire.contents w) with
   | _ -> Alcotest.fail "out-of-range selection accepted"
   | exception Wire.Malformed _ -> ())

(* --- worker report codec ------------------------------------------------------ *)

let test_worker_report_decode () =
  (* a u32 count, then each metric's name and f64 value *)
  let w = Wire.writer () in
  Wire.put_u32 w 2;
  Wire.put_bytes w "server.handler.seconds";
  Wire.put_f64 w 0.75;
  Wire.put_bytes w "server.sessions.accepted";
  Wire.put_f64 w 5.0;
  Alcotest.(check (list (pair string (float 0.0))))
    "scalars" [ ("server.handler.seconds", 0.75); ("server.sessions.accepted", 5.0) ]
    (Server_loop.decode_report (Wire.contents w));
  (match Server_loop.decode_report "nope" with
   | _ -> Alcotest.fail "garbage report accepted"
   | exception Wire.Malformed _ -> ())

(* --- spool -------------------------------------------------------------------- *)

let test_spool_basics () =
  let dir = fresh_dir "spool" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sp = Spool.create ~dir () in
      let key = String.init 16 (fun i -> Char.chr (0xF0 + i land 0x0f)) in
      Alcotest.(check (option string)) "miss" None (Spool.find sp ~key);
      Spool.put sp ~key "state v1";
      Spool.put sp ~key "state v2";
      Alcotest.(check int) "one entry" 1 (Spool.size sp);
      Alcotest.(check (option string)) "latest wins" (Some "state v2")
        (Spool.find sp ~key);
      (* take removes; a second take misses *)
      Alcotest.(check (option string)) "take" (Some "state v2")
        (Spool.take sp ~key);
      Alcotest.(check (option string)) "taken" None (Spool.take sp ~key);
      Alcotest.(check int) "empty" 0 (Spool.size sp))

let test_spool_ignores_torn_writes () =
  (* a crash mid-write leaves only a *.tmp — invisible to readers, and
     removed by the sweeper rather than ever being served *)
  let dir = fresh_dir "spool-torn" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sp = Spool.create ~dir () in
      let key = "0123456789abcdef" in
      Spool.put sp ~key "good state";
      let oc = open_out (Filename.concat dir "deadbeef.snap.tmp") in
      output_string oc "torn half-writ";
      close_out oc;
      Alcotest.(check int) "tmp not counted" 1 (Spool.size sp);
      Alcotest.(check (option string)) "good entry served" (Some "good state")
        (Spool.find sp ~key);
      (* backdate everything and sweep: the snap goes (counted), the
         orphaned tmp goes too (not counted) *)
      let old = Unix.gettimeofday () -. 3600.0 in
      Array.iter
        (fun e -> Unix.utimes (Filename.concat dir e) old old)
        (Sys.readdir dir);
      Alcotest.(check int) "sweep evicts the snap" 1 (Spool.sweep sp ~ttl_s:60.0);
      Alcotest.(check int) "spool empty" 0 (Spool.size sp);
      Alcotest.(check (array string)) "directory empty" [||] (Sys.readdir dir))

(* --- catalog store: atomic save_dir ------------------------------------------- *)

let test_store_save_dir_atomic () =
  let dir = fresh_dir "store" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Ppst_catalog.Store.create () in
      Ppst_catalog.Store.insert store ~id:"alpha" (Series.of_list [ 1; 2; 3 ]);
      Ppst_catalog.Store.insert store ~id:"beta" (Series.of_list [ 4; 5; 6 ]);
      Ppst_catalog.Store.save_dir store dir;
      (* crash-mid-write simulation: a torn temp file from a dead writer
         sits next to the committed records *)
      let oc = open_out (Filename.concat dir "gamma.csv.tmp") in
      output_string oc "7\n8";
      close_out oc;
      let reloaded = Ppst_catalog.Store.load_dir dir in
      Alcotest.(check int) "only committed records load" 2
        (Ppst_catalog.Store.length reloaded);
      Alcotest.(check bool) "alpha" true
        (Ppst_catalog.Store.mem reloaded ~id:"alpha");
      Alcotest.(check bool) "beta" true
        (Ppst_catalog.Store.mem reloaded ~id:"beta");
      (* a second save replaces via rename: never a partial .csv *)
      Ppst_catalog.Store.insert store ~id:"gamma" (Series.of_list [ 7; 8; 9 ]);
      Ppst_catalog.Store.save_dir store dir;
      let files = Sys.readdir dir in
      Array.sort compare files;
      Alcotest.(check bool) "no committed tmp residue" false
        (Array.exists
           (fun f -> Filename.check_suffix f ".csv.tmp" && f <> "gamma.csv.tmp")
           files);
      Alcotest.(check int) "all three load" 3
        (Ppst_catalog.Store.length (Ppst_catalog.Store.load_dir dir)))

(* --- fd passing ---------------------------------------------------------------- *)

let test_fd_passing_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b; r; w ])
    (fun () ->
      Fd_passing.send_fd a ~fd:w;
      match Fd_passing.recv_fd b with
      | None -> Alcotest.fail "EOF instead of fd"
      | Some w' ->
        (* the received descriptor is live: bytes written through it
           arrive at the original pipe's read end *)
        let n = Unix.write_substring w' "ping" 0 4 in
        Alcotest.(check int) "write through passed fd" 4 n;
        Unix.close w';
        let buf = Bytes.create 8 in
        let got = Unix.read r buf 0 8 in
        Alcotest.(check string) "payload" "ping" (Bytes.sub_string buf 0 got))

let test_fd_passing_eof () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  Fun.protect
    ~finally:(fun () -> try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "clean EOF" true (Fd_passing.recv_fd b = None))

(* --- resume sharding: the dispatcher's peek offsets ---------------------------- *)

let test_resume_frame_layout_pins_peek () =
  (* the supervisor shards by peeking the token at fixed frame offsets
     (payload byte 0 = 0x0c tag, bytes 5..20 = token); this test pins
     the codec to that layout so a wire change cannot silently break
     resume routing *)
  let token = String.init 16 (fun i -> Char.chr (0x41 + i)) in
  let payload =
    Message.encode
      (Message.Request (Message.Resume { token; client_rounds = 7; flags = 3 }))
  in
  Alcotest.(check int) "tag byte" 0x0c (Char.code payload.[0]);
  Alcotest.(check string) "token at bytes 5..20" token (String.sub payload 5 16)

let resume_frame token =
  let payload =
    Message.encode
      (Message.Request (Message.Resume { token; client_rounds = 7; flags = 3 }))
  in
  let len = String.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set_uint8 frame 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 frame 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 frame 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 frame 3 (len land 0xff);
  Bytes.blit_string payload 0 frame 4 len;
  frame

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

let test_peek_silent_client_does_not_block () =
  (* a peer that connects and sends nothing (port scanner, LB health
     probe, hostile client) must round-robin within the 50 ms peek
     budget instead of parking the single-threaded dispatcher in a
     blocking recv *)
  with_socketpair (fun srv _cli ->
      let t0 = Unix.gettimeofday () in
      let routed = Supervisor.peek_token srv in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check (option string)) "silent peer round-robins" None routed;
      Alcotest.(check bool)
        (Printf.sprintf "returned in %.3f s, within the peek budget" elapsed)
        true (elapsed < 2.0))

let test_peek_partial_first_segment () =
  (* the first segment may carry fewer bytes than reach the tag: the
     dispatcher must wait for the tag instead of inspecting the
     uninitialized peek buffer, so a Resume split across segments still
     routes by token hash *)
  let token = String.init 16 (fun i -> Char.chr (0x61 + i)) in
  let frame = resume_frame token in
  with_socketpair (fun srv cli ->
      Alcotest.(check int) "3 bytes sent" 3 (Unix.write cli frame 0 3);
      let writer =
        Thread.create
          (fun () ->
            Thread.delay 0.01;
            ignore (Unix.write cli frame 3 (Bytes.length frame - 3)))
          ()
      in
      let routed = Supervisor.peek_token srv in
      Thread.join writer;
      Alcotest.(check (option string)) "split Resume routes by token"
        (Some token) routed;
      (* the peek consumed nothing and left the fd blocking: the worker
         sees the whole frame untouched *)
      let got = Bytes.create (Bytes.length frame) in
      let n = Unix.read srv got 0 (Bytes.length got) in
      Alcotest.(check int) "frame intact for the worker" (Bytes.length frame) n;
      Alcotest.(check bytes) "bytes untouched" frame got)

(* --- resume table: sweeping stays bounded -------------------------------------- *)

let test_resume_table_mass_expiry () =
  let now = ref 0.0 in
  let t =
    Resume_table.create ~now:(fun () -> !now) ~capacity:10_000 ~ttl_s:60.0 ()
  in
  for i = 1 to 5_000 do
    Resume_table.put t (Printf.sprintf "token-%05d" i) i
  done;
  Alcotest.(check int) "all parked" 5_000 (Resume_table.size t);
  now := 61.0;
  Alcotest.(check int) "one sweep evicts all" 5_000 (Resume_table.sweep t);
  Alcotest.(check int) "empty" 0 (Resume_table.size t);
  Alcotest.(check int) "expiry accounted" 5_000 (Resume_table.expired_total t);
  Alcotest.(check (option int)) "expired token refused" None
    (Resume_table.take t "token-00001")

(* --- supervised failover: the chaos matrix ------------------------------------- *)

let series_y16 =
  Series.of_list [ 2; 4; 6; 5; 7; 3; 8; 1; 5; 9; 2; 6; 4; 7; 3; 8 ]

let series_x16 =
  Series.of_list [ 3; 4; 5; 4; 6; 7; 2; 6; 1; 8; 3; 5; 7; 2; 9; 4 ]

let max_value16 = 10

let sk16 =
  lazy
    (let rng = seeded "failover/keygen" in
     snd
       (Ppst_paillier.Paillier.keygen
          ~bits:Ppst.Params.default.Ppst.Params.key_bits rng))

(* Seeded 8-record catalog for the 1-vs-8 query chaos matrix: length-16
   dim-1 series with coordinates in [1, 10] from a fixed formula, so
   every process (and every run) builds the identical store. *)
let query_store8 =
  lazy
    (let store = Store.create () in
     for i = 0 to 7 do
       let series =
         Series.of_list
           (List.init 16 (fun j -> (((i * 7) + (j * 5) + 3) mod 10) + 1))
       in
       Store.insert store ~id:(string_of_int i) series
     done;
     store)

let fast_policy =
  { Retry.max_attempts = 12; base_delay_s = 0.002; max_delay_s = 0.05;
    multiplier = 2.0 }

let fast_restart_policy =
  { Retry.max_attempts = 8; base_delay_s = 0.002; max_delay_s = 0.02;
    multiplier = 2.0 }

(* The per-session handler of the failover deployments: a seeded server
   over the shared key (the 8-record store, or the pairwise series) with
   the snapshot/restore hooks the spool needs. *)
let spooled_handler ~sk ~store ~seed ~id ~peer:_ =
  let rng = seeded (Printf.sprintf "%s/session-%d" seed id) in
  let server =
    match store with
    | Some store -> Ppst.Server.of_store_with_key ~sk ~rng ~store ~max_value:max_value16 ()
    | None -> Ppst.Server.create_with_key ~sk ~rng ~series:series_y16 ~max_value:max_value16 ()
  in
  {
    Server_loop.respond = Ppst.Server.handle server;
    snapshot = Some (fun () -> Ppst.Server.export_state server);
    restore = Some (fun blob -> Ppst.Server.restore_state server blob);
  }

(* Fork a supervisor process: parent owns nothing but the child pid and
   the pre-bound port.  Workers run the real Server_loop worker path
   with spool failover; a non-restarted worker carries the crash
   injector ([crash_at = 0] disables it), a restarted replacement runs
   fault-free — exactly the ppst_server wiring.  [?catalog] serves the
   8-record query store instead of the single pairwise series;
   [?disk_faults] arms the supervisor's fd-exhaustion injector
   (accept/socketpair EMFILE). *)
let start_supervised ?(catalog = false) ?disk_faults ~workers ~spool ~crash_at
    ~seed () =
  let listener, port = Channel.listen ~backlog:64 ~port:0 () in
  (* force before forking: children inherit the memoized key and store *)
  let sk = Lazy.force sk16 in
  let store = if catalog then Some (Lazy.force query_store8) else None in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let worker_main ~slot ~restarted ~control =
      let faults =
        if restarted || crash_at = 0 then None
        else Some (Faults.create (Faults.Crash_at crash_at))
      in
      let config =
        {
          Server_loop.default_config with
          spool_dir = Some spool;
          faults;
          drain_timeout_s = 5.0;
        }
      in
      let loop =
        Server_loop.create_worker ~config
          ~rng:(seeded (Printf.sprintf "%s/worker-%d" seed slot))
          ~boot_id:"bt01" ~slot ~workers ~control
          ~handler:(spooled_handler ~sk ~store ~seed) ()
      in
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Server_loop.shutdown loop));
      Server_loop.run loop
    in
    let summary =
      Supervisor.run ~restart_policy:fast_restart_policy ~drain_timeout_s:5.0
        ?disk_faults ~listener ~workers ~worker_main ()
    in
    (* exit code carries the restart count (bounded) back to the test *)
    Unix._exit (Stdlib.min 100 summary.Supervisor.restarts)
  | pid ->
    Unix.close listener;
    (pid, port)

let stop_supervised pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED restarts -> restarts
  | _, _ -> Alcotest.fail "supervisor did not exit cleanly"

(* One secure 16x16 DTW session.  A crash that lands before the resume
   token exists is unrecoverable by design: restart the whole session
   with the same seed (same transcript).  [stats_out] receives the
   channel's accounting so the crash-free run can size the matrix. *)
let run_failover_client ~port ~seed ?stats_out () =
  let rec attempt tries =
    match
      let channel =
        Channel.connect ~retry:fast_policy
          ~rng:(seeded (seed ^ "/jitter"))
          ~host:"127.0.0.1" ~port ()
      in
      match
        let rng = seeded (seed ^ "/client") in
        let client =
          Ppst.Client.connect ~rng ~series:series_x16 ~max_value:max_value16
            ~distance:`Dtw channel
        in
        let d = Ppst.Secure_dp.(run dtw Full Row_major) client in
        Ppst.Client.finish client;
        (match stats_out with
         | Some r -> r := Stats.messages (Channel.stats channel)
         | None -> ());
        d
      with
      | d -> d
      | exception e ->
        (try Channel.close channel with _ -> ());
        raise e
    with
    | d -> d
    | exception
        (( Channel.Connection_lost _ | Channel.Frame_corrupt _
         | Channel.Busy _ | Retry.Exhausted _
         | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE), _, _)
         ) as e) ->
      if tries = 0 then raise e
      else begin
        Thread.delay 0.02;
        attempt (tries - 1)
      end
  in
  attempt 30

let plaintext_reference =
  lazy (Distance.dtw_sq series_x16 series_y16)

(* The per-frame matrix runs in this process, with the test as the
   dispatcher.  The session's first connection goes to worker loop A,
   whose injector drops the connection at frame [drop_at] — the I/O
   position at which [Crash_at] would SIGKILL a supervised worker.  Every
   later connection goes to worker loop B: a fresh loop with empty memory
   sharing A's spool and boot id, so the only way B can continue the
   session is from its spooled snapshot, exactly as a restarted worker
   would.  [f] gets the port plus the reconnect counts: Resume frames
   and fresh sessions that reached B. *)
let with_dispatched_pair ~spool ~drop_at ~seed f =
  let listener, port = Channel.listen ~backlog:64 ~port:0 () in
  let sk = Lazy.force sk16 in
  let worker slot faults =
    let config =
      { Server_loop.default_config with spool_dir = Some spool; faults; drain_timeout_s = 5.0 }
    in
    let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let loop =
      Server_loop.create_worker ~config
        ~rng:(seeded (Printf.sprintf "%s/worker-%d" seed slot))
        ~boot_id:"bt01" ~slot ~workers:2 ~control:theirs
        ~handler:(spooled_handler ~sk ~store:None ~seed) ()
    in
    (ours, theirs, Thread.create (fun () -> Server_loop.run loop) ())
  in
  let faults = if drop_at = 0 then None else Some (Faults.create (Faults.Drop_at drop_at)) in
  let (a, _, _) as wa = worker 0 faults in
  let (b, _, _) as wb = worker 1 None in
  let resumes = ref 0 and fresh = ref 0 in
  let stop = Atomic.make false in
  let dispatcher =
    Thread.create
      (fun () ->
        let first = ref true in
        while not (Atomic.get stop) do
          match Unix.select [ listener ] [] [] 0.01 with
          | [], _, _ -> ()
          | _ ->
            let fd, _ = Unix.accept listener in
            if !first then begin
              first := false;
              Fd_passing.send_fd a ~fd
            end
            else begin
              (match Supervisor.peek_token fd with
               | Some _ -> incr resumes
               | None -> incr fresh);
              Fd_passing.send_fd b ~fd
            end;
            Unix.close fd
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join dispatcher;
      Unix.close listener;
      List.iter
        (fun (ours, theirs, runner) ->
          (* EOF on the control socket: the worker drains and reports *)
          Unix.shutdown ours Unix.SHUTDOWN_SEND;
          Thread.join runner;
          Unix.close ours;
          Unix.close theirs)
        [ wa; wb ])
    (fun () -> f ~port ~resumes ~fresh)

let resume_accepted = Ppst_telemetry.Metrics.counter "server.resume.accepted"

(* The dispatcher routes a Resume by token hash, so a worker must mint
   only tokens that hash to its own slot: 20 resume-offering Hellos to
   worker 1 of 3, each over a connection passed in as the supervisor
   would pass it. *)
let test_worker_tokens_route_home () =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let loop =
    Server_loop.create_worker ~rng:(seeded "route-home/tokens") ~boot_id:"bt01" ~slot:1
      ~workers:3 ~control:theirs
      ~handler:(spooled_handler ~sk:(Lazy.force sk16) ~store:None ~seed:"route-home")
      ()
  in
  let runner = Thread.create (fun () -> Server_loop.run loop) () in
  Fun.protect
    ~finally:(fun () ->
      Unix.shutdown ours Unix.SHUTDOWN_SEND;
      Thread.join runner;
      Unix.close ours;
      Unix.close theirs)
    (fun () ->
      for i = 1 to 20 do
        let client, served = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fd_passing.send_fd ours ~fd:served;
        Unix.close served;
        Channel.write_frame client
          (Message.encode
             (Message.Request (Message.Hello { flags = Message.flag_resume; spec = None })));
        (match Option.map Message.decode (Channel.read_frame client) with
         | Some (Message.Reply (Message.Welcome { resume_token; _ })) ->
           Alcotest.(check int)
             (Printf.sprintf "token %d routes to slot 1" i)
             1
             (Supervisor.slot_of_token ~workers:3 resume_token)
         | _ -> Alcotest.fail "no Welcome");
        Unix.close client
      done)

let test_failover_kill_every_frame () =
  (* fault-free reference run: distance + the frame budget that bounds
     the matrix (each client message is one worker frame) *)
  let spool = fresh_dir ~base:memory_base "matrix" in
  let messages = ref 0 in
  let reference =
    Fun.protect ~finally:(fun () -> rm_rf spool)
      (fun () ->
        with_dispatched_pair ~spool ~drop_at:0 ~seed:"matrix-ref" (fun ~port ~resumes:_ ~fresh:_ ->
            run_failover_client ~port ~seed:"matrix-ref" ~stats_out:messages ()))
  in
  Alcotest.(check int) "fault-free distance = plaintext DTW"
    (Lazy.force plaintext_reference)
    (Bigint.to_int_exn reference);
  let frames = !messages in
  Alcotest.(check bool) (Printf.sprintf "session exchanged %d frames" frames) true (frames > 16);
  for k = 1 to frames do
    let spool = fresh_dir ~base:memory_base "matrix" in
    let seed = Printf.sprintf "matrix-%d" k in
    let accepted_before = Ppst_telemetry.Metrics.counter_value resume_accepted in
    let d, resumes, fresh =
      Fun.protect ~finally:(fun () -> rm_rf spool)
        (fun () ->
          with_dispatched_pair ~spool ~drop_at:k ~seed (fun ~port ~resumes ~fresh ->
              let d = run_failover_client ~port ~seed () in
              (d, !resumes, !fresh)))
    in
    let from_spool = Ppst_telemetry.Metrics.counter_value resume_accepted - accepted_before in
    Alcotest.check eq_bi
      (Printf.sprintf "distance identical with worker cut at frame %d" k)
      reference d;
    (* frames 1-2 are Hello and Welcome: the client never held a token
       and starts over.  From frame 3 on it resumes, and B (empty memory)
       can only take the session from the spool — except at the last
       frame, the Bye_ack, whose session has already ended. *)
    if k <= 2 then
      Alcotest.(check bool) (Printf.sprintf "frame %d: fresh session on B" k) true
        (fresh >= 1 && resumes = 0)
    else if k < frames then
      Alcotest.(check bool)
        (Printf.sprintf "frame %d: resumed on B from the spool" k)
        true
        (resumes >= 1 && fresh = 0 && from_spool >= 1)
  done

let test_failover_cross_worker () =
  (* two workers sharing one spool: the session's worker is SIGKILLed
     mid-stream and the resume token hashes to whichever worker is
     alive — the snapshot travels between processes through the spool.
     Spot-checks a spread of frame indexes with real SIGKILLs; the
     exhaustive per-frame matrix runs in one process above. *)
  let reference = Lazy.force plaintext_reference in
  List.iter
    (fun k ->
      let spool = fresh_dir "cross" in
      let pid, port =
        start_supervised ~workers:2 ~spool ~crash_at:k
          ~seed:(Printf.sprintf "cross-%d" k) ()
      in
      let d =
        Fun.protect ~finally:(fun () ->
            ignore (stop_supervised pid);
            rm_rf spool)
          (fun () ->
            run_failover_client ~port ~seed:(Printf.sprintf "cross-%d" k) ())
      in
      Alcotest.(check int)
        (Printf.sprintf "cross-worker failover at frame %d" k)
        reference (Bigint.to_int_exn d))
    [ 5; 17; 40; 101 ]

(* --- supervised failover: the query chaos matrix ------------------------------- *)

let query_spec = Ppst.Protocol.spec `Euclidean

(* Comparable shape of a query report: (index, id, distance) triples in
   hit order.  Bigints go through their decimal rendering so the
   comparison is structural. *)
let hit_triples (r : Ppst.Query.report) =
  Array.to_list r.Ppst.Query.hits
  |> List.map (fun (h : Ppst.Query.hit) ->
         (h.Ppst.Query.index, h.Ppst.Query.id, Bigint.to_string h.Ppst.Query.distance))

(* One seeded 1-vs-8 top-3 query.  Like [run_failover_client], a crash
   the channel could not resume transparently restarts the whole query
   with the same seed — including the degraded-mode case where the
   failure surfaced as a typed partial result instead of an exception
   (a crash-matrix run must recover the complete answer, so a partial
   one retries like a failed one). *)
let run_query_client ~port ~seed ?stats_out () =
  let rec attempt tries =
    let retry e =
      if tries = 0 then raise e
      else begin
        Thread.delay 0.02;
        attempt (tries - 1)
      end
    in
    match
      let channel =
        Channel.connect ~retry:fast_policy
          ~rng:(seeded (seed ^ "/jitter"))
          ~host:"127.0.0.1" ~port ()
      in
      match
        let rng = seeded (seed ^ "/client") in
        let client =
          Ppst.Client.connect ~query:true ~rng ~series:series_x16
            ~max_value:max_value16 ~distance:`Euclidean channel
        in
        let report = Ppst.Query.top_k ~spec:query_spec ~k:3 client in
        Ppst.Client.finish client;
        (match stats_out with
         | Some r -> r := Stats.messages (Channel.stats channel)
         | None -> ());
        report
      with
      | report -> report
      | exception e ->
        (try Channel.close channel with _ -> ());
        raise e
    with
    | report when report.Ppst.Query.incomplete = [||] -> report
    | report ->
      retry
        (Failure
           (Printf.sprintf "query returned %d incomplete candidate(s)"
              (Array.length report.Ppst.Query.incomplete)))
    | exception
        (( Channel.Connection_lost _ | Channel.Frame_corrupt _
         | Channel.Busy _ | Channel.Resume_rejected _ | Retry.Exhausted _
         | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE), _, _)
         ) as e) ->
      retry e
  in
  attempt 30

let test_query_kill_every_frame () =
  (* crash-free supervised reference run: the top-3 answer plus the
     frame budget that bounds the matrix *)
  let spool = fresh_dir "query-matrix" in
  let messages = ref 0 in
  let reference =
    let pid, port =
      start_supervised ~catalog:true ~workers:2 ~spool ~crash_at:0
        ~seed:"qmatrix-ref" ()
    in
    Fun.protect ~finally:(fun () -> ignore (stop_supervised pid))
      (fun () ->
        run_query_client ~port ~seed:"qmatrix-ref" ~stats_out:messages ())
  in
  rm_rf spool;
  Alcotest.(check int) "reference finds k hits" 3
    (Array.length reference.Ppst.Query.hits);
  Alcotest.(check int) "reference complete" 0
    (Array.length reference.Ppst.Query.incomplete);
  let reference_hits = hit_triples reference in
  let frames = !messages in
  Alcotest.(check bool) "query exchanged frames" true (frames > 8);
  for k = 1 to frames do
    let spool = fresh_dir "query-matrix" in
    let pid, port =
      start_supervised ~catalog:true ~workers:2 ~spool ~crash_at:k
        ~seed:(Printf.sprintf "qmatrix-%d" k) ()
    in
    let report =
      Fun.protect ~finally:(fun () ->
          ignore (stop_supervised pid);
          rm_rf spool)
        (fun () ->
          run_query_client ~port ~seed:(Printf.sprintf "qmatrix-%d" k) ())
    in
    Alcotest.(check (list (triple int string string)))
      (Printf.sprintf "top-k identical with worker killed at frame %d" k)
      reference_hits (hit_triples report)
  done

(* --- supervisor fd exhaustion --------------------------------------------------- *)

let test_supervisor_fd_exhaustion () =
  (* The supervisor's fd-allocation injector: op 1 is worker 0's spawn
     socketpair (EMFILE there defers the spawn to the restart schedule),
     op 2 is the first accept (EMFILE there sheds the connection with a
     Busy frame through the reserve descriptor).  Either way the client
     must end with the exact distance and the supervisor must exit
     cleanly — fd exhaustion is degraded operation, never a crash. *)
  let reference = Lazy.force plaintext_reference in
  List.iter
    (fun at ->
      let spool = fresh_dir "emfile" in
      let pid, port =
        start_supervised
          ~disk_faults:(Faults.Disk.create (Faults.Disk.Emfile_at at))
          ~workers:1 ~spool ~crash_at:0
          ~seed:(Printf.sprintf "emfile-%d" at) ()
      in
      let d =
        Fun.protect ~finally:(fun () ->
            let restarts = stop_supervised pid in
            Alcotest.(check bool)
              (Printf.sprintf "supervisor survived EMFILE at fd op %d" at)
              true (restarts < 100);
            rm_rf spool)
          (fun () ->
            run_failover_client ~port
              ~seed:(Printf.sprintf "emfile-%d" at) ())
      in
      Alcotest.(check int)
        (Printf.sprintf "distance exact despite EMFILE at fd op %d" at)
        reference (Bigint.to_int_exn d))
    [ 1; 2 ]

(* --- accept-path sweeping ------------------------------------------------------ *)

(* The resume token rides the Welcome reply, so these in-process loops
   need a real protocol handler behind them (the loop only decorates the
   handler's Welcome). *)
let real_handler ~seed ~id ~peer:_ =
  let server =
    Ppst.Server.create_with_key ~sk:(Lazy.force sk16)
      ~rng:(seeded (Printf.sprintf "%s/session-%d" seed id))
      ~series:series_y16 ~max_value:max_value16 ()
  in
  Server_loop.respond_only (Ppst.Server.handle server)

let test_accept_path_sweeps_lazily () =
  (* thousands of abandoned sessions must not pin memory until someone
     calls sweep_resume by hand: the accept loop itself sweeps (at most
     once a second) as connections arrive *)
  let now = ref 10_000.0 in
  let config =
    { Server_loop.default_config with resume_ttl_s = 30.0; max_sessions = 64 }
  in
  let loop =
    Server_loop.create ~config
      ~clock:(fun () -> !now)
      ~port:0
      ~handler:(real_handler ~seed:"lazy-sweep")
      ()
  in
  let runner = Thread.create (fun () -> Server_loop.run loop) () in
  let port = Server_loop.port loop in
  Fun.protect
    ~finally:(fun () ->
      Server_loop.shutdown loop;
      Thread.join runner)
    (fun () ->
      let abandoned = 12 in
      for i = 1 to abandoned do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Channel.write_frame fd
          (Message.encode
             (Message.Request
                (Message.Hello { flags = Message.flag_resume; spec = None })));
        (match Channel.read_frame fd with
         | Some frame ->
           (match Message.decode frame with
            | Message.Reply (Message.Welcome { resume_token; _ }) ->
              if String.length resume_token = 0 then
                Alcotest.fail (Printf.sprintf "session %d got no token" i)
            | _ -> Alcotest.fail "no Welcome")
         | None -> Alcotest.fail "EOF before Welcome");
        (* abandon: close without Bye, so the session parks *)
        Unix.close fd
      done;
      (* wait for the server threads to notice the EOFs and park *)
      let rec wait_parked tries =
        if Server_loop.resume_parked loop < abandoned then
          if tries = 0 then
            Alcotest.fail
              (Printf.sprintf "only %d of %d sessions parked"
                 (Server_loop.resume_parked loop)
                 abandoned)
          else begin
            Thread.delay 0.02;
            wait_parked (tries - 1)
          end
      in
      wait_parked 100;
      (* fake time passes the TTL; the *next accepted connection* must
         trigger the lazy sweep — nobody calls sweep_resume *)
      now := !now +. 31.0;
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let rec wait_swept tries =
        if Server_loop.resume_parked loop > 0 then
          if tries = 0 then
            Alcotest.fail
              (Printf.sprintf "%d sessions still parked after accept tick"
                 (Server_loop.resume_parked loop))
          else begin
            Thread.delay 0.02;
            wait_swept (tries - 1)
          end
      in
      wait_swept 100;
      Unix.close fd;
      Alcotest.(check int) "expiries accounted" abandoned
        (Server_loop.resume_expired_total loop))

(* --- whole-server restart: typed fail-fast ------------------------------------- *)

let raw_request ~port msg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Channel.write_frame fd (Message.encode (Message.Request msg));
      match Channel.read_frame fd with
      | None -> Alcotest.fail "no reply to raw frame"
      | Some frame ->
        (match Message.decode frame with
         | Message.Reply r -> r
         | Message.Request _ -> Alcotest.fail "server sent a request"))

let test_server_restart_rejects_with_typed_reason () =
  let start boot_id =
    let loop =
      Server_loop.create ~boot_id ~port:0
        ~handler:(real_handler ~seed:("restart-" ^ boot_id))
        ()
    in
    let runner = Thread.create (fun () -> Server_loop.run loop) () in
    (loop, runner)
  in
  let stop (loop, runner) =
    Server_loop.shutdown loop;
    Thread.join runner
  in
  (* incarnation A issues a token... *)
  let a = start "AAAA" in
  let token =
    Fun.protect ~finally:(fun () -> stop a)
      (fun () ->
        match
          raw_request ~port:(Server_loop.port (fst a))
            (Message.Hello { flags = Message.flag_resume; spec = None })
        with
        | Message.Welcome { resume_token; _ } when resume_token <> "" ->
          resume_token
        | _ -> Alcotest.fail "no token from incarnation A")
  in
  Alcotest.(check string) "token carries the boot id" "AAAA"
    (String.sub token 0 4);
  (* ...incarnation B (restarted server, fresh boot id) must answer the
     stale token with the typed server-restarted reason, so the client
     fails fast instead of burning its retry budget *)
  let b = start "BBBB" in
  Fun.protect ~finally:(fun () -> stop b)
    (fun () ->
      let port = Server_loop.port (fst b) in
      (match
         raw_request ~port
           (Message.Resume { token; client_rounds = 3; flags = 3 })
       with
       | Message.Resume_reject { reason } ->
         Alcotest.(check bool) "typed server-restarted reason" true
           (Channel.is_server_restarted reason)
       | _ -> Alcotest.fail "stale-incarnation token accepted");
      (* an unknown token of the *current* incarnation stays a plain
         reject: retrying is allowed to find a parked session *)
      match
        raw_request ~port
          (Message.Resume
             { token = "BBBB" ^ String.make 12 'x'; client_rounds = 1; flags = 3 })
      with
      | Message.Resume_reject { reason } ->
        Alcotest.(check bool) "unknown token is not 'server restarted'" false
          (Channel.is_server_restarted reason)
      | _ -> Alcotest.fail "unknown token accepted")

let test_restart_reason_classifier () =
  Alcotest.(check bool) "prefix match" true
    (Channel.is_server_restarted
       (Channel.server_restarted_reason ^ ": boot id mismatch"));
  Alcotest.(check bool) "exact match" true
    (Channel.is_server_restarted Channel.server_restarted_reason);
  Alcotest.(check bool) "other reasons don't match" false
    (Channel.is_server_restarted "unknown or expired resume token");
  Alcotest.(check bool) "embedded elsewhere doesn't match" false
    (Channel.is_server_restarted ("x" ^ Channel.server_restarted_reason))

(* --- intake fd exhaustion ---------------------------------------------------- *)

let accept_emfile = Ppst_telemetry.Metrics.counter "server.accept.emfile"

let emfile_at_first_take () =
  {
    Server_loop.default_config with
    disk_faults = Some (Faults.Disk.create (Faults.Disk.Emfile_at 1));
  }

(* Out of descriptors at its first take, a loop still takes the pending
   connection through its reserve and answers its Hello with Busy; the
   next connections are served, so a retrying client reveals the exact
   distance. *)
let check_busy_then_served ~port ~seed =
  let before = Ppst_telemetry.Metrics.counter_value accept_emfile in
  (match raw_request ~port (Message.Hello { flags = 0; spec = None }) with
   | Message.Busy _ -> ()
   | _ -> Alcotest.fail "first Hello not answered Busy");
  Alcotest.(check int) "exhausted take counted" 1
    (Ppst_telemetry.Metrics.counter_value accept_emfile - before);
  Alcotest.(check int) "distance exact after the Busy"
    (Lazy.force plaintext_reference)
    (Bigint.to_int_exn (run_failover_client ~port ~seed ()))

let test_loop_fd_exhaustion () =
  let loop =
    Server_loop.create ~config:(emfile_at_first_take ()) ~port:0
      ~handler:(real_handler ~seed:"loop-emfile") ()
  in
  let runner = Thread.create Server_loop.run loop in
  Fun.protect
    ~finally:(fun () ->
      Server_loop.shutdown loop;
      Thread.join runner)
    (fun () -> check_busy_then_served ~port:(Server_loop.port loop) ~seed:"loop-emfile")

(* A worker loop on [control], run until the test half-closes [ours]. *)
let with_worker ?config ~seed f =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let loop =
    Server_loop.create_worker ?config ~slot:0 ~workers:1 ~control:theirs
      ~handler:(real_handler ~seed) ()
  in
  let runner = Thread.create Server_loop.run loop in
  Fun.protect
    ~finally:(fun () ->
      Unix.shutdown ours Unix.SHUTDOWN_SEND;
      Thread.join runner;
      Unix.close ours;
      Unix.close theirs)
    (fun () -> f ours)

let test_worker_fd_exhaustion () =
  (* the test is the dispatcher: every connection to its listener goes
     down the worker's control socket *)
  with_worker ~config:(emfile_at_first_take ()) ~seed:"worker-emfile" (fun control ->
      let listener, port = Channel.listen ~backlog:16 ~port:0 () in
      let stop = Atomic.make false in
      let dispatcher =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              match Unix.select [ listener ] [] [] 0.01 with
              | [], _, _ -> ()
              | _ ->
                let fd, _ = Unix.accept listener in
                Fd_passing.send_fd control ~fd;
                Unix.close fd
            done)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Thread.join dispatcher;
          Unix.close listener)
        (fun () -> check_busy_then_served ~port ~seed:"worker-emfile"))

(* Out of descriptors, a loop sheds inside its take: a peer that
   connects and sends nothing reads Busy, then EOF, at once, rather than
   after a refusing session's wait for its first frame. *)
let test_loop_fd_exhaustion_sheds_silent_peer () =
  let loop =
    Server_loop.create ~config:(emfile_at_first_take ()) ~port:0
      ~handler:(real_handler ~seed:"silent-emfile") ()
  in
  let runner = Thread.create Server_loop.run loop in
  Fun.protect
    ~finally:(fun () ->
      Server_loop.shutdown loop;
      Thread.join runner)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let t0 = Monoclock.now () in
          let deadline = t0 +. 5.0 in
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server_loop.port loop));
          (match Option.map Message.decode (Channel.read_frame ~deadline fd) with
           | Some (Message.Reply (Message.Busy _)) -> ()
           | _ -> Alcotest.fail "silent peer not answered Busy");
          if Channel.read_frame ~deadline fd <> None then
            Alcotest.fail "a frame after the Busy";
          let waited = Monoclock.now () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "Busy and EOF %.3f s after connect" waited)
            true (waited < 0.1)))

(* SIGTERM stops an idle supervisor's intake through its self-pipe, so
   the parent does not wait out a select tick: five supervisors, each
   gone within 100 ms of the signal. *)
let test_idle_supervisor_stops_at_once () =
  for i = 1 to 5 do
    let spool = fresh_dir "stop" in
    let pid, port =
      start_supervised ~workers:1 ~spool ~crash_at:0 ~seed:(Printf.sprintf "stop-%d" i) ()
    in
    Fun.protect
      ~finally:(fun () -> rm_rf spool)
      (fun () ->
        (* answered by the worker: the parent and its worker are up *)
        (match raw_request ~port Message.Health_req with
         | Message.Health_reply _ -> ()
         | _ -> Alcotest.fail "no Health_reply");
        Thread.delay 0.1 (* the probe's session ends, the parent idles *);
        let t0 = Monoclock.now () in
        ignore (stop_supervised pid);
        let waited = Monoclock.now () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "supervisor %d exited %.3f s after SIGTERM" i waited)
          true (waited < 0.1))
  done

let test_worker_survives_bare_control_byte () =
  with_worker ~seed:"bare-byte" (fun control ->
      (* a data byte without a descriptor: what a receiver that cannot
         install the descriptor is handed *)
      ignore (Unix.write_substring control "F" 0 1);
      let client, served = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fd_passing.send_fd control ~fd:served;
      Unix.close served;
      Fun.protect
        ~finally:(fun () -> Unix.close client)
        (fun () ->
          Channel.write_frame client
            (Message.encode (Message.Request (Message.Hello { flags = 0; spec = None })));
          match
            Option.map Message.decode
              (Channel.read_frame ~deadline:(Monoclock.now () +. 5.0) client)
          with
          | Some (Message.Reply (Message.Welcome _)) -> ()
          | _ -> Alcotest.fail "no Welcome"
          | exception Channel.Timeout ->
            Alcotest.fail "next dispatched connection not served"))

(* --- telemetry: per-line durability -------------------------------------------- *)

let test_jsonl_sink_flushes_per_line () =
  let dir = fresh_dir "telemetry" in
  Fun.protect ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Unix.mkdir dir 0o700;
      let path = Filename.concat dir "trace.jsonl" in
      let oc = open_out path in
      let sink = Ppst_telemetry.Telemetry.jsonl_sink oc in
      (* emit through the sink and read the file back WITHOUT closing or
         flushing the channel: a crashed process gets exactly this view *)
      List.iter
        (fun name ->
          sink.Ppst_telemetry.Telemetry.emit
            (Ppst_telemetry.Telemetry.Point
               {
                 name;
                 t = 1.5;
                 attrs = [ ("worker", Ppst_telemetry.Telemetry.Int 3) ];
               }))
        [ "failover.spool.write"; "failover.resume"; "failover.drain" ];
      let entries, tail = Ppst_telemetry.Trace_reader.read_file_partial path in
      Alcotest.(check int) "every line visible before close" 3
        (List.length entries);
      (match tail with
       | Ppst_telemetry.Trace_reader.Complete -> ()
       | Ppst_telemetry.Trace_reader.Truncated { reason; _ } ->
         Alcotest.fail ("unexpected truncation: " ^ reason));
      (* a torn final line (crash mid-write) is reported, not fatal *)
      output_string oc "{\"ts\":2.0,\"name\":\"torn";
      flush oc;
      let entries, tail = Ppst_telemetry.Trace_reader.read_file_partial path in
      Alcotest.(check int) "whole lines still parse" 3 (List.length entries);
      (match tail with
       | Ppst_telemetry.Trace_reader.Truncated _ -> ()
       | Ppst_telemetry.Trace_reader.Complete ->
         Alcotest.fail "torn tail not reported");
      close_out oc)

let () =
  Alcotest.run "failover"
    [
      ( "snapshot",
        [
          Alcotest.test_case "codec round trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick
            test_snapshot_rejects_garbage;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "admission export/import" `Quick
            test_admission_export_import;
          Alcotest.test_case "server state round trip" `Quick
            test_server_state_roundtrip;
          Alcotest.test_case "worker report decode" `Quick
            test_worker_report_decode;
          Alcotest.test_case "resume frame layout pins dispatcher peek" `Quick
            test_resume_frame_layout_pins_peek;
          Alcotest.test_case "silent peer cannot block the dispatcher" `Quick
            test_peek_silent_client_does_not_block;
          Alcotest.test_case "partial first segment still routes Resume" `Quick
            test_peek_partial_first_segment;
        ] );
      ( "spool",
        [
          Alcotest.test_case "put/find/take" `Quick test_spool_basics;
          Alcotest.test_case "torn writes invisible" `Quick
            test_spool_ignores_torn_writes;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "save_dir atomic + crash reload" `Quick
            test_store_save_dir_atomic;
        ] );
      ( "fd-passing",
        [
          Alcotest.test_case "descriptor round trip" `Quick
            test_fd_passing_roundtrip;
          Alcotest.test_case "EOF" `Quick test_fd_passing_eof;
        ] );
      ( "failover",
        [
          Alcotest.test_case "worker killed at every frame index" `Slow
            test_failover_kill_every_frame;
          Alcotest.test_case "cross-worker spool failover" `Slow
            test_failover_cross_worker;
          Alcotest.test_case "query: worker killed at every frame index" `Slow
            test_query_kill_every_frame;
          Alcotest.test_case "supervisor fd exhaustion degrades, not crashes"
            `Slow test_supervisor_fd_exhaustion;
          Alcotest.test_case "loop fd exhaustion answers Busy" `Quick
            test_loop_fd_exhaustion;
          Alcotest.test_case "worker fd exhaustion answers Busy" `Quick
            test_worker_fd_exhaustion;
          Alcotest.test_case "worker survives a bare control byte" `Quick
            test_worker_survives_bare_control_byte;
          Alcotest.test_case "loop fd exhaustion sheds a silent peer at once" `Quick
            test_loop_fd_exhaustion_sheds_silent_peer;
          Alcotest.test_case "idle supervisor stops at once" `Quick
            test_idle_supervisor_stops_at_once;
        ] );
      ( "resume",
        [
          Alcotest.test_case "mass expiry stays bounded" `Quick
            test_resume_table_mass_expiry;
          Alcotest.test_case "accept path sweeps lazily" `Quick
            test_accept_path_sweeps_lazily;
          Alcotest.test_case "restart reject is typed" `Quick
            test_server_restart_rejects_with_typed_reason;
          Alcotest.test_case "restart reason classifier" `Quick
            test_restart_reason_classifier;
          Alcotest.test_case "worker tokens route to their own slot" `Quick
            test_worker_tokens_route_home;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "jsonl sink flushes per line" `Quick
            test_jsonl_sink_flushes_per_line;
        ] );
    ]
