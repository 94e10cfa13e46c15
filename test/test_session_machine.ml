(* Model test of the server's session machine, driven without a socket:
   random event sequences — Hello with random flags and declared specs,
   every request kind at random sizes, Resume with live, stale-boot,
   forged and already-attached tokens at any round count, reselection
   mid-query, introspection before and after negotiation, reply frames,
   truncated and malformed bytes, CRC trailers without the grant, EOF,
   deadlines, stalls, worker restarts — through both starting modes,
   under tight admission limits, against a real [Ppst.Server] handler
   with a small key.  After every step:

   - [step] did not raise;
   - every frame it emitted decodes as a [Message.reply];
   - a step that refused a request at admission changed no [Server.ops]
     (no Paillier work outside an admitted plan);
   - a Resume one round behind replayed the cached reply without calling
     the handler, and one in sync replayed nothing. *)

open Ppst_transport
module SM = Session_machine
module Bigint = Ppst_bigint.Bigint

let seeded = Ppst_rng.Secure_rng.of_seed_string
let boot = "mdl1"

let sk =
  lazy
    (snd
       (Ppst_paillier.Paillier.keygen ~bits:Ppst.Params.default.Ppst.Params.key_bits
          (seeded "session-machine/keygen")))

let limits =
  {
    Admission.max_cells = Some 40;
    max_series_len = Some 8;
    max_dim = Some 2;
    max_session_bytes = Some 2_500;
    max_session_frames = Some 10;
  }

(* --- commands ------------------------------------------------------------------ *)

type token_kind = Live | Stale_boot | Forged | Any_known

type cmd =
  | Hello of int * (int * int) option
  | Request of Message.request
  | Resume of token_kind * int  (* rounds relative to the session's count *)
  | Reply_frame
  | Truncated of int
  | Garbage of string
  | Crc_trailer
  | Eof
  | Timeout of SM.timer
  | Stalled
  | Lost
  | Tick of float
  | Reconnect
  | Refused of bool  (* a new connection in refusing mode; shed? *)
  | Restart  (* the worker dies: parked memory is gone, the spool stays *)

let pp_cmd = function
  | Hello (f, s) ->
    Printf.sprintf "Hello(flags=%d, spec=%s)" f
      (match s with Some (m, d) -> Printf.sprintf "%dx%d" m d | None -> "-")
  | Request r -> Message.describe (Message.Request r)
  | Resume (k, d) ->
    Printf.sprintf "Resume(%s, %+d)"
      (match k with Live -> "live" | Stale_boot -> "stale" | Forged -> "forged" | Any_known -> "known")
      d
  | Reply_frame -> "Reply"
  | Truncated n -> Printf.sprintf "Truncated(%d)" n
  | Garbage s -> Printf.sprintf "Garbage(%S)" s
  | Crc_trailer -> "Crc_trailer"
  | Eof -> "Eof"
  | Timeout SM.Idle -> "Timeout idle"
  | Timeout SM.Deadline -> "Timeout deadline"
  | Timeout SM.Probe -> "Timeout probe"
  | Stalled -> "Stalled"
  | Lost -> "Lost"
  | Tick s -> Printf.sprintf "Tick(%.1f)" s
  | Reconnect -> "Reconnect"
  | Refused shed -> Printf.sprintf "Refused(shed=%b)" shed
  | Restart -> "Restart"

let gen_cmd =
  let open QCheck2.Gen in
  let small = int_range 0 6 in
  let cipher = map Bigint.of_int (int_range 1 5000) in
  let ciphers = array_size small cipher in
  let request =
    oneof
      [
        return Message.Phase1_request;
        map (fun a -> Message.Min_request a) ciphers;
        map (fun a -> Message.Max_request a) ciphers;
        map (fun a -> Message.Batch_min_request a) (array_size small ciphers);
        map (fun a -> Message.Batch_max_request a) (array_size small ciphers);
        map2
          (fun counts packed -> Message.Packed_min_request { slot_bits = 8; counts; packed })
          (array_size small (int_range 1 3))
          ciphers;
        map2
          (fun counts packed -> Message.Packed_max_request { slot_bits = 8; counts; packed })
          (array_size small (int_range 1 3))
          ciphers;
        map (fun v -> Message.Reveal_request v) cipher;
        return Message.Catalog_request;
        map (fun i -> Message.Select_request i) (int_range 0 2);
        return Message.Catalog_list_request;
        map2
          (fun segments indices -> Message.Query_submit { segments; band = None; indices })
          (int_range 1 4)
          (array_size small (int_range 0 2));
        map (fun a -> Message.Verdict_request a) ciphers;
        return Message.Stats_req;
        return Message.Health_req;
        return Message.Metrics_req;
        return Message.Bye;
      ]
  in
  frequency
    [
      ( 3,
        map2
          (fun flags spec -> Hello (flags, spec))
          (int_range 0 0x3f)
          (option (pair (int_range 1 10) (frequency [ (4, return 1); (2, return 2); (1, return 3) ]))) );
      (8, map (fun r -> Request r) request);
      ( 4,
        map2
          (fun k d -> Resume (k, d))
          (oneofl [ Live; Live; Stale_boot; Forged; Any_known ])
          (frequency [ (3, int_range (-1) 0); (1, int_range (-4) 3) ]) );
      (1, return Reply_frame);
      (1, map (fun n -> Truncated n) (int_range 0 40));
      (1, map (fun s -> Garbage s) (string_size ~gen:char (int_range 0 12)));
      (1, return Crc_trailer);
      (2, return Eof);
      (1, map (fun t -> Timeout t) (oneofl [ SM.Idle; SM.Deadline ]));
      (1, return Stalled);
      (2, return Lost);
      (1, map (fun s -> Tick s) (float_range 0.0 3.0));
      (1, return Reconnect);
      (1, map (fun b -> Refused b) bool);
      (1, return Restart);
    ]

(* --- the harness --------------------------------------------------------------- *)

type conn = {
  st : SM.t;
  rounds : int;  (* counted replies of the attached session *)
  last : string;  (* its last counted reply frame *)
  token : string;  (* its resume token, once known *)
}

type world = {
  clock : float ref;
  minted : int ref;
  parked : (string, SM.session) Hashtbl.t;
  spool : (string, string) Hashtbl.t;
  model : (string, int * string) Hashtbl.t;  (* token -> parked rounds, last reply *)
  tokens : string list ref;  (* every token minted *)
  servers : (Ppst.Server.t * (int * int * int) ref) list ref;
      (* every handler built, with its op counts after any restore *)
  calls : int ref;  (* application-handler calls *)
  taken : [ `Memory | `Spool of string ] option ref;
}

let new_world () =
  {
    clock = ref 1000.0;
    minted = ref 0;
    parked = Hashtbl.create 8;
    spool = Hashtbl.create 8;
    model = Hashtbl.create 8;
    tokens = ref [];
    servers = ref [];
    calls = ref 0;
    taken = ref None;
  }

let env w =
  {
    SM.now = (fun () -> !(w.clock));
    idle_timeout_s = Some 5.0;
    deadline_s = Some 40.0;
    grants = Message.flag_crc32 lor Message.flag_resume lor Message.flag_metrics;
    admission = limits;
    spooling = true;
    boot_id = boot;
    mint_token =
      (fun () ->
        incr w.minted;
        let t = boot ^ Printf.sprintf "%012d" !(w.minted) in
        w.tokens := t :: !(w.tokens);
        t);
    take_parked =
      (fun token ->
        match Hashtbl.find_opt w.parked token with
        | Some s ->
          Hashtbl.remove w.parked token;
          w.taken := Some `Memory;
          Some (SM.Live s)
        | None -> (
          match Hashtbl.find_opt w.spool token with
          | Some blob ->
            Hashtbl.remove w.spool token;
            w.taken := Some (`Spool blob);
            Some (SM.Spooled blob)
          | None -> None));
    in_handler = (fun call -> call ());
    stats_text = (fun () -> "# resume table\n");
    metrics_text = (fun () -> "# EOF\n");
    health =
      (fun ~probe_slot:_ ->
        Message.Health_reply { status = 0; active = 1; capacity = 2; retry_after_s = 0.0 });
  }

let counts server =
  let o = Ppst.Server.ops server in
  (o.Ppst.Cost.encryptions, o.Ppst.Cost.decryptions, o.Ppst.Cost.homomorphic)

let app w () =
  let server =
    Ppst.Server.create_with_key ~sk:(Lazy.force sk) ~rng:(seeded "session-machine/server")
      ~series:(Ppst_timeseries.Series.of_list [ 2; 4; 6; 5; 7 ])
      ~max_value:9 ()
  in
  let restored = ref (counts server) in
  w.servers := (server, restored) :: !(w.servers);
  {
    SM.respond =
      (fun req ->
        incr w.calls;
        Ppst.Server.handle server req);
    snapshot = Some (fun () -> Ppst.Server.export_state server);
    restore =
      Some
        (fun blob ->
          (* a restored snapshot carries the session's earlier op counts:
             accounting, not work *)
          Ppst.Server.restore_state server blob;
          restored := counts server);
  }

(* Paillier operations each handler has performed (restores excluded). *)
let ops w =
  List.map
    (fun (server, (e0, d0, h0)) ->
      let e, d, h = counts server in
      (e - e0, d - d0, h - h0))
    (List.map (fun (s, r) -> (s, !r)) !(w.servers))

let fresh_conn w = { st = SM.serving (env w) ~app:(app w); rounds = 0; last = ""; token = "" }

let encode req = Message.encode (Message.Request req)

let crc_frame payload =
  let d = Crc32.digest payload in
  payload ^ String.init 4 (fun i -> Char.chr ((d lsr (8 * (3 - i))) land 0xff))

exception Violation of string

let violation fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

let decode_reply frame =
  match Message.decode frame with
  | Message.Reply r -> r
  | Message.Request _ -> violation "emitted a request frame"
  | exception Wire.Malformed m -> violation "emitted an undecodable frame: %s" m

let rec split_at n l =
  match l with
  | x :: rest when n > 0 ->
    let a, b = split_at (n - 1) rest in
    (x :: a, b)
  | _ -> ([], l)

(* No Paillier work outside an admitted plan: servers that existed keep
   their counts, servers built during the step have done nothing. *)
let check_no_work ~before after =
  let fresh, old = split_at (List.length after - List.length before) after in
  if old <> before || List.exists (( <> ) (0, 0, 0)) fresh then
    violation "Paillier work in a step refused at admission"

(* Apply one command; returns the connection that continues. *)
let run_cmd w conn cmd =
  let known () = match !(w.tokens) with t :: _ -> t | [] -> boot ^ String.make 12 '0' in
  let event, expect =
    match cmd with
    | Hello (flags, spec) ->
      let spec = Option.map (fun (m, d) -> { Message.series_len = m; dimension = d }) spec in
      (Some (SM.Frame (encode (Message.Hello { flags; spec }))), None)
    | Request r -> (Some (SM.Frame (encode r)), None)
    | Resume (kind, delta) ->
      let token =
        match kind with
        | Live -> (
          match Hashtbl.fold (fun t _ acc -> t :: acc) w.parked [] with
          | t :: _ -> t
          | [] -> (match Hashtbl.fold (fun t _ acc -> t :: acc) w.spool [] with t :: _ -> t | [] -> known ()))
        | Stale_boot -> "old!" ^ String.sub (known ()) 4 12
        | Forged -> boot ^ "forged-token"
        | Any_known -> known ()
      in
      let expected =
        match Hashtbl.find_opt w.model token with
        | Some (rounds, _) -> rounds
        | None -> 0
      in
      let client_rounds = max 0 (expected + delta) in
      ( Some (SM.Frame (encode (Message.Resume { token; client_rounds; flags = 0x3f }))),
        Some (token, client_rounds) )
    | Reply_frame -> (Some (SM.Frame (Message.encode (Message.Reply (Message.Select_ack 0)))), None)
    | Truncated n ->
      let full = encode (Message.Min_request [| Bigint.of_int 77; Bigint.of_int 88 |]) in
      (Some (SM.Frame (String.sub full 0 (min n (String.length full - 1)))), None)
    | Garbage s -> (Some (SM.Frame s), None)
    | Crc_trailer -> (Some (SM.Frame (crc_frame (encode Message.Health_req))), None)
    | Eof -> (Some SM.Eof, None)
    | Timeout t -> (Some (SM.Timeout t), None)
    | Stalled -> (Some SM.Stalled, None)
    | Lost -> (Some SM.Lost, None)
    | Tick _ | Reconnect | Refused _ | Restart -> (None, None)
  in
  match (cmd, event) with
  | Tick s, _ ->
    w.clock := !(w.clock) +. s;
    conn
  | Reconnect, _ -> fresh_conn w
  | Refused shed, _ -> { (fresh_conn w) with st = SM.refusing (env w) ~shed ~retry_after_s:1.5 }
  | Restart, _ ->
    Hashtbl.reset w.parked;
    fresh_conn w
  | _, None -> conn
  | _, Some event ->
    let ops_before = ops w and calls_before = !(w.calls) in
    w.taken := None;
    let st, actions =
      try SM.step conn.st event
      with e -> violation "step raised %s" (Printexc.to_string e)
    in
    let conn = ref { conn with st } in
    let closed = ref false in
    List.iter
      (fun action ->
        if !closed then violation "action after Close";
        match action with
        | SM.Send { frame; _ } -> (
          match decode_reply frame with
          | Message.Resume_ack { server_rounds; reply; _ } -> (
            (match expect with
             | Some (token, client_rounds) ->
               if !(w.calls) <> calls_before then violation "Resume called the handler";
               let rounds, last =
                 match !(w.taken) with
                 | Some (`Spool blob) ->
                   let s = Snapshot.decode blob in
                   (s.Snapshot.server_rounds, s.Snapshot.last_reply)
                 | Some `Memory -> (
                   match Hashtbl.find_opt w.model token with
                   | Some m -> m
                   | None -> violation "resumed a session the model never parked")
                 | None -> violation "Resume_ack without a parked session"
               in
               if server_rounds <> rounds then
                 violation "Resume_ack rounds %d, parked %d" server_rounds rounds;
               let want = if client_rounds < rounds then last else "" in
               if reply <> want then
                 violation "replay wrong (client %d, server %d): %d bytes, want %d" client_rounds
                   rounds (String.length reply) (String.length want);
               conn := { !conn with rounds; last; token };
               (match SM.attached st with
                | Some s when SM.token s = token -> ()
                | _ -> violation "Resume_ack without the session attached")
             | None -> violation "Resume_ack to a non-Resume frame"))
          | Message.Resume_reject _ -> ()
          | reply ->
            let token =
              match reply with
              | Message.Welcome { resume_token; _ } when resume_token <> "" -> resume_token
              | Message.Bye_ack _ -> ""
              | _ -> !conn.token
            in
            conn := { !conn with rounds = !conn.rounds + 1; last = frame; token })
        | SM.Notify { frame; _ } | SM.Refuse { frame; _ } -> ignore (decode_reply frame)
        | SM.Save_snapshot { token; blob } ->
          let s = Snapshot.decode blob in
          if s.Snapshot.server_rounds <> !conn.rounds + 1 then
            violation "spooled round %d, model %d" s.Snapshot.server_rounds (!conn.rounds + 1);
          Hashtbl.replace w.spool token blob
        | SM.Drop_snapshot token -> Hashtbl.remove w.spool token
        | SM.Close { park; _ } ->
          closed := true;
          if park then (
            match SM.attached st with
            | Some s ->
              Hashtbl.replace w.parked (SM.token s) s;
              Hashtbl.replace w.model (SM.token s) (!conn.rounds, !conn.last)
            | None -> violation "park without a session"))
      actions;
    if
      List.exists
        (function
          | SM.Send { frame; _ } -> (
            match decode_reply frame with Message.Quota_exceeded _ -> true | _ -> false)
          | _ -> false)
        actions
    then check_no_work ~before:ops_before (ops w);
    if !closed then fresh_conn w else !conn

let run_model cmds =
  let w = new_world () in
  let conn = ref (fresh_conn w) in
  List.iteri
    (fun i cmd ->
      try conn := run_cmd w !conn cmd
      with Violation m ->
        QCheck2.Test.fail_reportf "step %d (%s): %s" i (pp_cmd cmd) m)
    cmds;
  true

let prop_model =
  QCheck2.Test.make ~name:"session machine invariants" ~count:1000
    ~print:(fun cmds -> String.concat "; " (List.map pp_cmd cmds))
    QCheck2.Gen.(list_size (int_range 1 40) gen_cmd)
    run_model

(* --- deterministic checks ------------------------------------------------------- *)

let frames_of actions =
  List.filter_map (function SM.Send { frame; _ } -> Some (decode_reply frame) | _ -> None) actions

let test_replay_exactly_once () =
  let w = new_world () in
  let step conn ev = SM.step conn.st ev in
  let c = fresh_conn w in
  let st, _ = step c (SM.Frame (encode (Message.Hello { flags = Message.flag_resume; spec = None }))) in
  let st, _ = SM.step st (SM.Frame (encode Message.Health_req)) in
  let st, actions = SM.step st SM.Lost in
  let s = match SM.attached st with Some s -> s | None -> Alcotest.fail "no session" in
  Alcotest.(check bool) "parked" true
    (List.exists (function SM.Close { park; _ } -> park | _ -> false) actions);
  Hashtbl.replace w.parked (SM.token s) s;
  let resume client_rounds =
    let calls = !(w.calls) in
    let _, actions =
      SM.step (fresh_conn w).st
        (SM.Frame (encode (Message.Resume { token = SM.token s; client_rounds; flags = 0 })))
    in
    Hashtbl.replace w.parked (SM.token s) s;
    Alcotest.(check int) "handler not called" calls !(w.calls);
    match frames_of actions with
    | [ Message.Resume_ack { server_rounds; reply; _ } ] -> (server_rounds, reply)
    | _ -> Alcotest.fail "no Resume_ack"
  in
  let rounds, replay = resume 1 in
  Alcotest.(check int) "two counted replies" 2 rounds;
  (match Message.decode replay with
   | Message.Reply (Message.Health_reply _) -> ()
   | _ -> Alcotest.fail "one behind: the Health_reply is replayed");
  let _, replay = resume 2 in
  Alcotest.(check string) "in sync: nothing replayed" "" replay

let test_idle_timer_reported_as_idle () =
  (* the timeout kind is the one armed, not recomputed at expiry *)
  let w = new_world () in
  let env = { (env w) with SM.idle_timeout_s = Some 0.3; deadline_s = Some 0.5 } in
  let st = SM.serving env ~app:(app w) in
  let st, _ = SM.step st (SM.Frame (encode (Message.Hello { flags = Message.flag_resume; spec = None }))) in
  (match SM.deadline st with
   | Some (_, SM.Idle) -> ()
   | _ -> Alcotest.fail "idle timer not armed first");
  w.clock := !(w.clock) +. 0.3;
  let _, actions = SM.step st (SM.Timeout SM.Idle) in
  match List.rev actions with
  | SM.Close { outcome = SM.Idle_timeout; park = true } :: _ -> ()
  | _ -> Alcotest.fail "idle timeout not parked"

let () =
  Alcotest.run "session-machine"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model;
          Alcotest.test_case "replay exactly once" `Quick test_replay_exactly_once;
          Alcotest.test_case "armed timer decides the outcome" `Quick
            test_idle_timer_reported_as_idle;
        ] );
    ]
