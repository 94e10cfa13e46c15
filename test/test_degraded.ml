(* Tests for degraded-mode operation: wall budgets clamp every retry
   sleep and surface as typed expiry (fake clock, property-tested), the
   environmental fault injector produces the real errnos in the right
   operation slots, spool/catalog writes fail atomically under ENOSPC
   and torn renames, a server whose spool dies keeps serving sessions
   and reports health status 3 until a write lands again, a black-holed
   server costs at most the declared budget, and a catalog query skips
   a poisoned or budget-starved candidate while returning every other
   hit bit-identical to the unpoisoned reference. *)

open Ppst_transport
module Disk = Faults.Disk
module Budget = Retry.Budget
module Metrics = Ppst_telemetry.Metrics
module Series = Ppst_timeseries.Series
module Bigint = Ppst_bigint.Bigint

let qtest name count gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ~print gen prop)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ppst-degraded-%d-%s-%d" (Unix.getpid ()) tag !counter)
    in
    rm_rf dir;
    dir

(* --- wall budgets on a fake clock --------------------------------------- *)

let test_budget_clock () =
  let t = ref 100.0 in
  let b = Budget.create ~now:(fun () -> !t) ~budget_s:2.0 () in
  Alcotest.(check (float 1e-9)) "budget_s" 2.0 (Budget.budget_s b);
  Alcotest.(check (float 1e-9)) "deadline" 102.0 (Budget.deadline b);
  Alcotest.(check (float 1e-9)) "remaining at birth" 2.0 (Budget.remaining_s b);
  Alcotest.(check bool) "fresh budget live" false (Budget.expired b);
  Budget.check b;
  t := 101.5;
  Alcotest.(check (float 1e-9)) "remaining mid-life" 0.5 (Budget.remaining_s b);
  t := 102.0;
  Alcotest.(check bool) "expired at deadline" true (Budget.expired b);
  Alcotest.(check (float 1e-9)) "remaining floors at 0" 0.0
    (Budget.remaining_s b);
  (match Budget.check b with
   | () -> Alcotest.fail "check passed an expired budget"
   | exception Budget.Exceeded { budget_s } ->
     Alcotest.(check (float 1e-9)) "Exceeded carries the budget" 2.0 budget_s);
  (match Budget.create ~budget_s:0.0 () with
   | _ -> Alcotest.fail "zero budget accepted"
   | exception Invalid_argument _ -> ())

let test_budget_sub () =
  let t = ref 0.0 in
  let parent = Budget.create ~now:(fun () -> !t) ~budget_s:10.0 () in
  let s1 = Budget.sub parent ~budget_s:3.0 in
  Alcotest.(check (float 1e-9)) "sub takes its own span" 3.0
    (Budget.remaining_s s1);
  t := 8.0;
  let s2 = Budget.sub parent ~budget_s:5.0 in
  Alcotest.(check (float 1e-9)) "sub clamped to the parent's remainder" 2.0
    (Budget.remaining_s s2);
  t := 12.0;
  let s3 = Budget.sub parent ~budget_s:1.0 in
  Alcotest.(check bool) "sub of a spent parent is born expired" true
    (Budget.expired s3)

(* with_retry under a budget: the backoff sleep is truncated to the
   remaining budget, so the loop never sleeps past the deadline no
   matter how the policy's delays land. *)
let prop_retry_sleep_clamp =
  qtest "retry sleeps never pass the budget deadline" 200
    QCheck2.Gen.(pair (float_range 0.05 5.0) (float_range 0.01 2.0))
    QCheck2.Print.(pair float float)
    (fun (budget_s, base_delay_s) ->
      let t = ref 0.0 in
      let b = Budget.create ~now:(fun () -> !t) ~budget_s () in
      let deadline = Budget.deadline b in
      let ok = ref true in
      let policy =
        { Retry.max_attempts = 50; base_delay_s;
          max_delay_s = base_delay_s *. 8.0; multiplier = 2.0 }
      in
      (match
         Retry.with_retry ~policy
           ~rng:(Ppst_rng.Secure_rng.of_seed_string "clamp")
           ~sleep:(fun d ->
             if !t +. d > deadline +. 1e-9 then ok := false;
             t := !t +. d)
           ~budget:b
           ~classify:(fun _ -> `Retry)
           (fun () -> failwith "always down")
       with
       | () -> ok := false (* f never succeeds *)
       | exception Budget.Exceeded _ -> ()
       | exception Retry.Exhausted _ -> ());
      !ok)

let test_retry_exhausted_wins () =
  (* max_attempts is checked before the budget: a single-attempt policy
     reports Exhausted even when the budget also ran out, so callers see
     the more specific verdict. *)
  let t = ref 0.0 in
  let b = Budget.create ~now:(fun () -> !t) ~budget_s:0.5 () in
  t := 10.0;
  match
    Retry.with_retry
      ~policy:{ Retry.default_policy with Retry.max_attempts = 1 }
      ~sleep:(fun _ -> ()) ~budget:b
      ~classify:(fun _ -> `Retry)
      (fun () -> failwith "always down")
  with
  | () -> Alcotest.fail "succeeded"
  | exception Retry.Exhausted { attempts; _ } ->
    Alcotest.(check int) "one attempt" 1 attempts
  | exception Budget.Exceeded _ ->
    Alcotest.fail "budget expiry outranked max_attempts"

(* --- the environmental fault injector ------------------------------------ *)

let test_disk_profile_roundtrip () =
  List.iter
    (fun p ->
      match Disk.profile_of_string (Disk.profile_to_string p) with
      | Ok p' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trips %s" (Disk.profile_to_string p))
          true (p = p')
      | Error e -> Alcotest.fail e)
    [ Disk.Off; Disk.Enospc_at 1; Disk.Enospc_every 3; Disk.Eio_fsync_at 2;
      Disk.Eio_fsync_every 4; Disk.Torn_rename_at 1; Disk.Emfile_at 5;
      Disk.Emfile_every 2 ];
  List.iter
    (fun s ->
      match Disk.profile_of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "parsed %S" s)
      | Error _ -> ())
    [ "bogus"; "enospc-at-0"; "emfile-every--1"; "enospc-at-" ]

let test_disk_injection_slots () =
  let d = Disk.create (Disk.Enospc_at 2) in
  Disk.check d Disk.Write;
  (match Disk.check d Disk.Write with
   | () -> Alcotest.fail "second write passed"
   | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  Disk.check d Disk.Write;
  (* other operation kinds have independent counters *)
  Disk.check d Disk.Fsync;
  Disk.check d Disk.Rename;
  Alcotest.(check int) "one fault injected" 1 (Disk.injected d);
  let f = Disk.create (Disk.Eio_fsync_at 1) in
  Disk.check f Disk.Write;
  (match Disk.check f Disk.Fsync with
   | () -> Alcotest.fail "fsync passed"
   | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
  let e = Disk.create (Disk.Emfile_every 2) in
  Disk.check e Disk.Fd;
  (match Disk.check e Disk.Fd with
   | () -> Alcotest.fail "2nd fd op passed"
   | exception Unix.Unix_error (Unix.EMFILE, _, _) -> ());
  Disk.check e Disk.Fd;
  (match Disk.check e Disk.Fd with
   | () -> Alcotest.fail "4th fd op passed"
   | exception Unix.Unix_error (Unix.EMFILE, _, _) -> ());
  Alcotest.(check int) "every-2 injected twice" 2 (Disk.injected e)

(* --- spool and catalog store under disk faults --------------------------- *)

let test_spool_enospc () =
  let dir = fresh_dir "spool-enospc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let faults = Disk.create (Disk.Enospc_at 1) in
  let sp = Spool.create ~disk_faults:faults ~dir () in
  let key = "0123456789abcdef" in
  (match Spool.put sp ~key "v1" with
   | () -> Alcotest.fail "put survived ENOSPC"
   | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  Alcotest.(check int) "fault was injected" 1 (Disk.injected faults);
  Alcotest.(check (option string)) "no torn value visible" None
    (Spool.find sp ~key);
  Alcotest.(check int) "spool still empty" 0 (Spool.size sp);
  (* the disk "recovers": the next put commits normally *)
  Spool.put sp ~key "v2";
  Alcotest.(check (option string)) "recovered put lands" (Some "v2")
    (Spool.find sp ~key)

let test_spool_torn_rename () =
  let dir = fresh_dir "spool-torn-rename" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let faults = Disk.create (Disk.Torn_rename_at 1) in
  let sp = Spool.create ~disk_faults:faults ~dir () in
  let key = "deadbeefcafef00d" in
  (match Spool.put sp ~key "half-committed" with
   | () -> Alcotest.fail "put survived the torn rename"
   | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
  (* the temp file was fully written before the rename died, but it is
     invisible to readers and the sweeper clears it *)
  Alcotest.(check (option string)) "torn write not served" None
    (Spool.find sp ~key);
  Alcotest.(check int) "not counted" 0 (Spool.size sp);
  let old = Unix.gettimeofday () -. 3600.0 in
  Array.iter
    (fun e -> Unix.utimes (Filename.concat dir e) old old)
    (Sys.readdir dir);
  ignore (Spool.sweep sp ~ttl_s:60.0);
  Alcotest.(check (array string)) "sweeper clears the orphan" [||]
    (Sys.readdir dir)

let test_spool_validate () =
  let dir = fresh_dir "spool-validate" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (match Spool.validate ~dir with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check (array string)) "probe cleaned up after itself" [||]
    (Sys.readdir dir);
  (* a plain file where the directory should be: fail fast with a reason *)
  let file = Filename.concat dir "not-a-dir" in
  let oc = open_out file in
  close_out oc;
  match Spool.validate ~dir:file with
  | Ok () -> Alcotest.fail "validated a regular file"
  | Error _ -> ()

let test_store_save_dir_enospc () =
  let dir = fresh_dir "store-enospc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Ppst_catalog.Store.create () in
  Ppst_catalog.Store.insert store ~id:"alpha" (Series.of_list [ 1; 2; 3 ]);
  Ppst_catalog.Store.insert store ~id:"beta" (Series.of_list [ 4; 5; 6 ]);
  (match
     Ppst_catalog.Store.save_dir
       ~disk_faults:(Disk.create (Disk.Enospc_at 1))
       store dir
   with
   | () -> Alcotest.fail "save_dir survived ENOSPC"
   | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  Alcotest.(check bool) "no record half-committed" false
    (Sys.readdir dir
    |> Array.exists (fun f -> Filename.check_suffix f ".csv"));
  (* a clean retry commits everything *)
  Ppst_catalog.Store.save_dir store dir;
  let reloaded = Ppst_catalog.Store.load_dir dir in
  Alcotest.(check int) "retry round-trips" 2
    (Ppst_catalog.Store.length reloaded);
  Alcotest.(check bool) "alpha" true
    (Ppst_catalog.Store.mem reloaded ~id:"alpha");
  Alcotest.(check bool) "beta" true
    (Ppst_catalog.Store.mem reloaded ~id:"beta")

(* --- degraded health: spool death must not kill sessions ----------------- *)

let series_y = Series.of_list [ 2; 4; 6; 5; 7 ]
let series_x = Series.of_list [ 3; 4; 5; 4; 6; 7 ]
let max_value9 = 9

let make_loop ?(config = Server_loop.default_config) ~seed () =
  let rng = Ppst_rng.Secure_rng.of_seed_string (seed ^ "/keygen") in
  let _pk, sk =
    Ppst_paillier.Paillier.keygen ~bits:Ppst.Params.default.Ppst.Params.key_bits
      rng
  in
  let handler ~id ~peer:_ =
    let server =
      Ppst.Server.create_with_key ~sk
        ~rng:
          (Ppst_rng.Secure_rng.of_seed_string
             (Printf.sprintf "%s/session-%d" seed id))
        ~series:series_y ~max_value:max_value9 ()
    in
    Server_loop.respond_only (Ppst.Server.handle server)
  in
  let loop = Server_loop.create ~config ~port:0 ~handler () in
  let runner = Thread.create (fun () -> Server_loop.run loop) () in
  (loop, runner)

let stop (loop, runner) =
  Server_loop.shutdown loop;
  Thread.join runner

let run_session ~port ~seed () =
  let rec attempt tries =
    let channel = Channel.connect ~host:"127.0.0.1" ~port () in
    match
      let rng = Ppst_rng.Secure_rng.of_seed_string (seed ^ "/client") in
      let client =
        Ppst.Client.connect ~rng ~series:series_x ~max_value:max_value9
          ~distance:`Dtw channel
      in
      let d = Ppst.Secure_dp.(run dtw Full Row_major) client in
      Ppst.Client.finish client;
      d
    with
    | d -> d
    | exception Channel.Busy _ when tries > 0 ->
      Channel.close channel;
      Thread.delay 0.05;
      attempt (tries - 1)
  in
  attempt 100

let probe_health ~port =
  let ch = Channel.connect ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Channel.close ch) @@ fun () ->
  match Channel.request ch Message.Health_req with
  | Message.Health_reply { status; _ } -> status
  | _ -> Alcotest.fail "expected Health_reply"

(* Spool writes that failed so far, process-wide, from the metrics
   registry: tests compare the delta since their start. *)
let spool_write_failures () =
  Metrics.counter_value (Metrics.counter "server.spool.write_failures")

let test_degraded_health () =
  (* every spool write fails: the session itself must still complete
     with the exact secure distance, and health flips to 3 (degraded:
     serving, but crash-durability lost). *)
  let dir = fresh_dir "degraded-spool" in
  let faults = Disk.create (Disk.Enospc_every 1) in
  let config =
    { Server_loop.default_config with
      Server_loop.spool_dir = Some dir;
      disk_faults = Some faults }
  in
  let failures0 = spool_write_failures () in
  let ((loop, _) as srv) = make_loop ~config ~seed:"degraded" () in
  Fun.protect
    ~finally:(fun () ->
      stop srv;
      rm_rf dir)
  @@ fun () ->
  let port = Server_loop.port loop in
  let clean = make_loop ~seed:"degraded" () in
  let reference =
    Fun.protect
      ~finally:(fun () -> stop clean)
      (fun () ->
        run_session ~port:(Server_loop.port (fst clean)) ~seed:"degraded" ())
  in
  let d = run_session ~port ~seed:"degraded" () in
  Alcotest.(check string) "distance identical to the undegraded run"
    (Bigint.to_string reference) (Bigint.to_string d);
  Alcotest.(check bool) "spool writes were attempted and failed" true
    (spool_write_failures () - failures0 > 0);
  Alcotest.(check bool) "loop reports degraded" true
    (Server_loop.is_degraded loop);
  Alcotest.(check int) "health status 3 = degraded" 3 (probe_health ~port)

let test_degraded_recovery () =
  (* only the first spool write fails: the degraded flag is sticky until
     a later write lands, so by session end health is back to ready. *)
  let dir = fresh_dir "recovered-spool" in
  let faults = Disk.create (Disk.Enospc_at 1) in
  let config =
    { Server_loop.default_config with
      Server_loop.spool_dir = Some dir;
      disk_faults = Some faults }
  in
  let failures0 = spool_write_failures () in
  let ((loop, _) as srv) = make_loop ~config ~seed:"recovery" () in
  Fun.protect
    ~finally:(fun () ->
      stop srv;
      rm_rf dir)
  @@ fun () ->
  let port = Server_loop.port loop in
  let _d = run_session ~port ~seed:"recovery" () in
  Alcotest.(check int) "exactly the injected write failed" 1
    (spool_write_failures () - failures0);
  Alcotest.(check bool) "a later write cleared the flag" false
    (Server_loop.is_degraded loop);
  Alcotest.(check int) "health status 0 = ready" 0 (probe_health ~port)

(* --- budget adherence against a black-holed server ----------------------- *)

let test_blackhole_budget () =
  (* a server that accepts and reads but never replies: the client gives
     up within its declared budget plus scheduling slack, and later
     requests on the spent channel fail instantly. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 8;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let stop_flag = Atomic.make false in
  let accepter =
    Thread.create
      (fun () ->
        let conns = ref [] in
        while not (Atomic.get stop_flag) do
          match Unix.accept sock with
          | fd, _ -> conns := fd :: !conns (* hold open, never reply *)
          | exception Unix.Unix_error _ -> ()
        done;
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !conns)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop_flag true;
      (* wake the blocked accept with one last connection *)
      (try
         let w = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         (try
            Unix.connect w (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
          with Unix.Unix_error _ -> ());
         Unix.close w
       with Unix.Unix_error _ -> ());
      Thread.join accepter;
      try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  let budget_s = 0.5 in
  let b = Budget.create ~budget_s () in
  let t0 = Unix.gettimeofday () in
  let ch = Channel.connect ~budget:b ~host:"127.0.0.1" ~port () in
  Fun.protect ~finally:(fun () -> Channel.close ch) @@ fun () ->
  (match Channel.request ch Message.Health_req with
   | _ -> Alcotest.fail "black-holed server answered"
   | exception (Channel.Timeout | Budget.Exceeded _ | Channel.Stalled) -> ()
   | exception Channel.Connection_lost _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "gave up by budget + slack (took %.3f s)" elapsed)
    true
    (elapsed < budget_s +. 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "did not give up before the budget (took %.3f s)" elapsed)
    true (elapsed >= 0.3);
  (* the budget is spent: no more wire traffic, instant typed failure *)
  let t1 = Unix.gettimeofday () in
  (match Channel.request ch Message.Health_req with
   | _ -> Alcotest.fail "request passed on a spent budget"
   | exception Budget.Exceeded _ -> ()
   | exception (Channel.Timeout | Channel.Connection_lost _) ->
     Alcotest.fail "spent budget reached the wire");
  Alcotest.(check bool) "expired-budget failure is immediate" true
    (Unix.gettimeofday () -. t1 < 0.2)

(* --- partial catalog results --------------------------------------------- *)

let store8 () =
  let store = Ppst_catalog.Store.create () in
  for i = 0 to 7 do
    Ppst_catalog.Store.insert store
      ~id:(Printf.sprintf "c%d" i)
      (Series.of_list
         (List.init 6 (fun j -> (((i * 5) + (j * 3)) mod 9) + 1)))
  done;
  store

let query_spec = Ppst.Protocol.spec `Euclidean

let hit_triples (r : Ppst.Query.report) =
  r.Ppst.Query.hits |> Array.to_list
  |> List.map (fun (h : Ppst.Query.hit) ->
      (h.index, h.id, Bigint.to_string h.distance))

let test_poisoned_candidate () =
  (* one candidate's exact run always draws a server error: the query
     returns the other 7 hits bit-identical to the unpoisoned reference
     and names exactly the poisoned candidate as incomplete. *)
  let store = store8 () in
  let poisoned = 3 in
  let reference, _ =
    Ppst.Query.run_top_k ~spec:query_spec ~seed:"poison-ref" ~max_value:10
      ~k:8 ~x:series_x ~store ()
  in
  Alcotest.(check int) "reference is complete" 8
    (Array.length reference.Ppst.Query.hits);
  let rng s = Ppst_rng.Secure_rng.of_seed_string ("poison/" ^ s) in
  let server =
    Ppst.Server.of_store ~rng:(rng "server") ~store ~max_value:10 ()
  in
  let channel =
    Channel.local (fun req ->
        match req with
        | Message.Select_request i when i = poisoned ->
          Message.Error_reply "poisoned candidate"
        | req -> Ppst.Server.handle server req)
  in
  let client =
    Ppst.Client.connect ~query:true ~rng:(rng "client") ~series:series_x
      ~max_value:10 ~distance:`Euclidean channel
  in
  let report = Ppst.Query.top_k ~spec:query_spec ~k:8 client in
  (try Ppst.Client.finish client with _ -> ());
  Alcotest.(check int) "seven hits" 7 (Array.length report.Ppst.Query.hits);
  Alcotest.(check int) "one incomplete" 1
    (Array.length report.Ppst.Query.incomplete);
  let inc = report.Ppst.Query.incomplete.(0) in
  Alcotest.(check int) "incomplete names the poisoned index" poisoned
    inc.Ppst.Query.index;
  Alcotest.(check string) "incomplete names the poisoned id" "c3"
    inc.Ppst.Query.id;
  (match inc.Ppst.Query.reason with
   | Ppst.Query.Server_error _ -> ()
   | r ->
     Alcotest.fail
       (Printf.sprintf "wrong reason: %s" (Ppst.Query.reason_to_string r)));
  Alcotest.(check (list (triple int string string)))
    "hits bit-identical to the reference minus the poisoned candidate"
    (hit_triples reference
    |> List.filter (fun (i, _, _) -> i <> poisoned))
    (hit_triples report)

let test_budget_expiry_marks_deadline () =
  (* a fake clock that jumps 1 s on every candidate switch: with a
     2.5 s whole-query budget the first two candidates resolve, the
     third dies mid-run on the budget check, and the rest are skipped
     without any wire traffic — all marked Deadline. *)
  let store = store8 () in
  let t = ref 0.0 in
  let budget = Budget.create ~now:(fun () -> !t) ~budget_s:2.5 () in
  let rng s = Ppst_rng.Secure_rng.of_seed_string ("expiry/" ^ s) in
  let server =
    Ppst.Server.of_store ~rng:(rng "server") ~store ~max_value:10 ()
  in
  let channel =
    Channel.local (fun req ->
        (match req with
         | Message.Select_request _ -> t := !t +. 1.0
         | _ -> ());
        Ppst.Server.handle server req)
  in
  let client =
    Ppst.Client.connect ~query:true ~rng:(rng "client") ~series:series_x
      ~max_value:10 ~distance:`Euclidean channel
  in
  let report = Ppst.Query.top_k ~spec:query_spec ~budget ~k:8 client in
  (try Ppst.Client.finish client with _ -> ());
  (* the query returns within its budget plus the one step that overran it *)
  Alcotest.(check bool) "clock at return <= budget + one step" true
    (!t <= 2.5 +. 1.0);
  Alcotest.(check int) "two candidates resolved" 2
    (Array.length report.Ppst.Query.hits);
  Alcotest.(check int) "six incomplete" 6
    (Array.length report.Ppst.Query.incomplete);
  Alcotest.(check (list int)) "exactly the unreached candidates"
    [ 2; 3; 4; 5; 6; 7 ]
    (Array.to_list report.Ppst.Query.incomplete
    |> List.map (fun (c : Ppst.Query.incomplete) -> c.index));
  Array.iter
    (fun (c : Ppst.Query.incomplete) ->
      match c.reason with
      | Ppst.Query.Deadline -> ()
      | r ->
        Alcotest.fail
          (Printf.sprintf "candidate %d: wrong reason %s" c.index
             (Ppst.Query.reason_to_string r)))
    report.Ppst.Query.incomplete;
  Alcotest.(check int) "the mid-run death still counted as evaluated" 3
    report.Ppst.Query.evaluated

let test_candidate_budget_isolates_slow () =
  (* one black-holed candidate (its protocol rounds burn fake-clock
     seconds) under a per-candidate sub-budget: that candidate alone is
     dropped with Deadline; the other seven resolve normally. *)
  let store = store8 () in
  let slow = 5 in
  let reference, _ =
    Ppst.Query.run_top_k ~spec:query_spec ~seed:"slow-ref" ~max_value:10
      ~k:8 ~x:series_x ~store ()
  in
  let t = ref 0.0 in
  let budget = Budget.create ~now:(fun () -> !t) ~budget_s:1000.0 () in
  let rng s = Ppst_rng.Secure_rng.of_seed_string ("slow/" ^ s) in
  let server =
    Ppst.Server.of_store ~rng:(rng "server") ~store ~max_value:10 ()
  in
  let selected = ref (-1) in
  let channel =
    Channel.local (fun req ->
        (match req with
         | Message.Select_request i -> selected := i
         | _ -> ());
        if !selected = slow then t := !t +. 1.0;
        Ppst.Server.handle server req)
  in
  let client =
    Ppst.Client.connect ~query:true ~rng:(rng "client") ~series:series_x
      ~max_value:10 ~distance:`Euclidean channel
  in
  let report =
    Ppst.Query.top_k ~spec:query_spec ~budget ~candidate_budget_s:0.5 ~k:8
      client
  in
  (try Ppst.Client.finish client with _ -> ());
  Alcotest.(check int) "seven hits" 7 (Array.length report.Ppst.Query.hits);
  Alcotest.(check int) "one incomplete" 1
    (Array.length report.Ppst.Query.incomplete);
  let inc = report.Ppst.Query.incomplete.(0) in
  Alcotest.(check int) "the slow candidate" slow inc.Ppst.Query.index;
  (match inc.Ppst.Query.reason with
   | Ppst.Query.Deadline -> ()
   | r ->
     Alcotest.fail
       (Printf.sprintf "wrong reason: %s" (Ppst.Query.reason_to_string r)));
  Alcotest.(check (list (triple int string string)))
    "hits bit-identical to the reference minus the slow candidate"
    (hit_triples reference |> List.filter (fun (i, _, _) -> i <> slow))
    (hit_triples report)

let () =
  Alcotest.run "degraded"
    [
      ( "budget",
        [
          Alcotest.test_case "fake-clock budget arithmetic" `Quick
            test_budget_clock;
          Alcotest.test_case "sub-budget clamps to the parent" `Quick
            test_budget_sub;
          prop_retry_sleep_clamp;
          Alcotest.test_case "Exhausted outranks an expired budget" `Quick
            test_retry_exhausted_wins;
        ] );
      ( "disk-faults",
        [
          Alcotest.test_case "profile strings round-trip" `Quick
            test_disk_profile_roundtrip;
          Alcotest.test_case "injection slots and errnos" `Quick
            test_disk_injection_slots;
          Alcotest.test_case "spool ENOSPC: atomic failure, clean retry"
            `Quick test_spool_enospc;
          Alcotest.test_case "spool torn rename: orphan swept, never served"
            `Quick test_spool_torn_rename;
          Alcotest.test_case "spool boot validation" `Quick
            test_spool_validate;
          Alcotest.test_case "catalog save_dir ENOSPC: nothing half-committed"
            `Quick test_store_save_dir_enospc;
        ] );
      ( "degraded-health",
        [
          Alcotest.test_case "spool death degrades health, not sessions"
            `Slow test_degraded_health;
          Alcotest.test_case "a later spool write clears degraded" `Slow
            test_degraded_recovery;
        ] );
      ( "budget-adherence",
        [
          Alcotest.test_case "black-holed server costs at most the budget"
            `Slow test_blackhole_budget;
        ] );
      ( "partial-results",
        [
          Alcotest.test_case "poisoned candidate: 7 exact hits + named skip"
            `Slow test_poisoned_candidate;
          Alcotest.test_case "whole-query budget expiry marks Deadline" `Slow
            test_budget_expiry_marks_deadline;
          Alcotest.test_case "candidate budget isolates one slow candidate"
            `Slow test_candidate_budget_isolates_slow;
        ] );
    ]
