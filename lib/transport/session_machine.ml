(* The per-connection protocol decisions of the TCP server.  Server_loop's
   shell reads frames, feeds them in as events and performs the returned
   actions in order; nothing here does I/O. *)

module Metrics = Ppst_telemetry.Metrics

let m_resume_accepted = Metrics.counter "server.resume.accepted"
let m_resume_rejected = Metrics.counter "server.resume.rejected"
let m_capability_violations = Metrics.counter "server.capability.violations"
let m_stalled = Metrics.counter "server.sessions.stalled"

type app_handler = {
  respond : Message.request -> Message.reply;
  snapshot : (unit -> string) option;
  restore : (string -> unit) option;
}

type outcome =
  | Completed
  | Idle_timeout
  | Deadline_exceeded
  | Client_error of string
  | Disconnected
  | Quota_rejected of string
  | Slow_peer

(* Everything needed to continue a session on a later connection.
   [server_rounds]/[last_reply] implement exactly-once rounds: the
   client reconciles its own received-reply count against
   [server_rounds], and when the server is ahead (the reply was
   computed but lost in transit) the cached encoding is replayed inside
   Resume_ack instead of running the round again. *)
type session = {
  make_app : unit -> app_handler;
  mutable app : app_handler option;
      (* built lazily, exactly once per logical session — a resumed
         connection reuses it, state intact *)
  mutable pending_restore : string option;
      (* application blob from a spooled snapshot, applied through the
         handler's [restore] hook the moment the factory rebuilds it *)
  mutable server_rounds : int;  (* replies written, control frames excluded *)
  mutable last_reply : string;  (* encoded last counted reply *)
  mutable handler_seconds : float;  (* cumulative across connections *)
  mutable requests : int;  (* cumulative across connections *)
  mutable token : string;
  mutable granted : int;
  deadline : float option;  (* fixed at first accept, survives resume *)
  adm : Admission.t;  (* per-session budget ledger, survives resume *)
  mutable server_len : int;  (* active record's length, from Welcome *)
  mutable catalog : int array option;  (* record lengths, once seen *)
}

let token s = s.token

type parked = Live of session | Spooled of string

type env = {
  now : unit -> float;
  idle_timeout_s : float option;
  deadline_s : float option;
  grants : int;
  admission : Admission.limits;
  spooling : bool;
  boot_id : string;
  mint_token : unit -> string;
  take_parked : string -> parked option;
  in_handler : (unit -> Message.reply) -> Message.reply;
  stats_text : unit -> string;
  metrics_text : unit -> string;
  health : probe_slot:bool -> Message.reply;
}

type timer = Idle | Deadline | Probe
type event = Frame of string | Eof | Timeout of timer | Stalled | Lost | Failed of string

type action =
  | Send of { frame : string; crc : bool; values : int }
  | Notify of { frame : string; crc : bool }
  | Save_snapshot of { token : string; blob : string }
  | Drop_snapshot of string
  | Refuse of { frame : string; shed : bool }
  | Close of { outcome : outcome; park : bool }

type conn = {
  env : env;
  new_app : unit -> app_handler;
  crc : bool;
  negotiated : bool;
      (* Hello or Resume seen on this connection.  Before that,
         Metrics_req is open introspection like Stats_req; after a
         negotiation that did not grant the flag, it is a violation. *)
  attached : session option;
  opened : float option;  (* this connection's accept-time deadline *)
  base_requests : int;
  base_handler : float;
  stats : Stats.t;
}

type probe = { penv : env; answered : int; shed : bool; retry_after_s : float }
type t = Serving of conn | Refusing of probe

let serving env ~app =
  Serving
    {
      env;
      new_app = app;
      crc = false;
      negotiated = false;
      attached = None;
      opened = Option.map (fun s -> env.now () +. s) env.deadline_s;
      base_requests = 0;
      base_handler = 0.0;
      stats = Stats.create ();
    }

let refusing env ~shed ~retry_after_s =
  Refusing { penv = env; answered = 0; shed; retry_after_s }

let granted bits flag = bits land flag <> 0
let encode reply = Message.encode (Message.Reply reply)

(* --- sessions ---------------------------------------------------------------- *)

let attach c s =
  { c with attached = Some s; base_requests = s.requests; base_handler = s.handler_seconds }

(* A session from a snapshot image: a fresh one from [blank], or a
   spooled one after a memory miss.  Either way the deadline is this
   connection's (a failed-over session's original absolute deadline
   died with its worker). *)
let of_snapshot c ~adm (snap : Snapshot.t) =
  {
    make_app = c.new_app;
    app = None;
    pending_restore = (if snap.app = "" then None else Some snap.app);
    server_rounds = snap.server_rounds;
    last_reply = snap.last_reply;
    handler_seconds = snap.handler_seconds;
    requests = snap.requests;
    token = snap.token;
    granted = snap.granted;
    deadline = c.opened;
    adm;
    server_len = snap.server_len;
    catalog = snap.catalog;
  }

let blank =
  { Snapshot.token = ""; granted = 0; server_rounds = 0; last_reply = ""; requests = 0;
    handler_seconds = 0.0; server_len = 0; catalog = None; admission = ""; app = "" }

(* The full serializable session image (Snapshot transport fields + the
   handler's own exported state). *)
let snapshot_of s =
  let app =
    match s.app with
    | Some { snapshot = Some snap; _ } -> snap ()
    | _ -> Option.value s.pending_restore ~default:""
  in
  Snapshot.encode
    { Snapshot.token = s.token; granted = s.granted; server_rounds = s.server_rounds;
      last_reply = s.last_reply; requests = s.requests; handler_seconds = s.handler_seconds;
      server_len = s.server_len; catalog = s.catalog; admission = Admission.export s.adm;
      app }

(* The attached session, created on first use: any counted reply
   belongs to a session, even one that never said Hello. *)
let session c =
  match c.attached with
  | Some s -> (c, s)
  | None ->
    let s = of_snapshot c ~adm:(Admission.create c.env.admission) blank in
    (attach c s, s)

(* One application-handler call, timed into the session.  The handler
   is built (and a spooled blob re-applied) at the session's first
   call, in the session's own thread. *)
let call c s req =
  let app () =
    match s.app with
    | Some h -> h
    | None ->
      let h = s.make_app () in
      (match (s.pending_restore, h.restore) with
       | Some blob, Some restore -> restore blob
       | _ -> ());
      s.pending_restore <- None;
      s.app <- Some h;
      h
  in
  let t0 = c.env.now () in
  let reply =
    c.env.in_handler (fun () ->
        try (app ()).respond req with e -> Message.Error_reply (Printexc.to_string e))
  in
  s.handler_seconds <- s.handler_seconds +. (c.env.now () -. t0);
  reply

(* --- replies ----------------------------------------------------------------- *)

let send ?frame c reply =
  let frame = match frame with Some f -> f | None -> encode reply in
  Send { frame; crc = c.crc; values = Message.values_in (Message.Reply reply) }

(* A counted reply is a round: cached (encoding included) and spooled
   BEFORE the write.  If the write dies half-way the client saw nothing,
   resumes with an older count, and the cached copy is replayed; a
   worker killed after the spool but before the send leaves the client
   one round behind with the reply in the snapshot, one killed before
   the spool makes the client re-send — either way the revealed result
   is bit-identical.  Control frames (Resume_ack / Resume_reject) are
   not rounds on either side. *)
let counted c reply =
  let c, s = session c in
  s.server_rounds <- s.server_rounds + 1;
  s.last_reply <- encode reply;
  let spool =
    if c.env.spooling && s.token <> "" then [ Save_snapshot { token = s.token; blob = snapshot_of s } ]
    else []
  in
  (c, spool @ [ send ~frame:s.last_reply c reply ])

(* The connection ends.  Recoverable interruptions (connection lost,
   idle timeout — the client may just be partitioned) park a resumable
   session; any other end is final, so its spooled snapshot must die
   with the token, or a quota-rejected or deadline-cut session could
   resurrect through the spool. *)
let close (c, actions) outcome =
  let token = match c.attached with Some s -> s.token | None -> "" in
  let recoverable = outcome = Disconnected || outcome = Idle_timeout in
  let park = token <> "" && recoverable && granted c.env.grants Message.flag_resume in
  let drop = if token <> "" && (not park) && c.env.spooling then [ Drop_snapshot token ] else [] in
  (c, actions @ drop @ [ Close { outcome; park } ])

(* An admission verdict: [Reject] answers Quota_exceeded and ends the
   session while the request is still plaintext bookkeeping. *)
let admit c verdict k =
  match (verdict, Admission.to_reply verdict) with
  | Admission.Reject { quota; _ }, Some reply -> close (counted c reply) (Quota_rejected quota)
  | _ -> k ()

let violation message =
  Metrics.incr m_capability_violations;
  "capability violation: " ^ message

(* The introspection pages, answered by the loop in both modes rather
   than by the protocol handler: they must reflect every session, not
   this one.  [metrics] gates the Metrics page; [denied] names the
   refusal; [probe_slot] says the asking connection holds a slot of its
   own. *)
let page env ~probe_slot ~metrics ~denied = function
  | Message.Stats_req -> Message.Stats_reply (env.stats_text ())
  | Message.Health_req -> env.health ~probe_slot
  | _ -> if metrics then Message.Metrics_reply (env.metrics_text ()) else Message.Error_reply (denied ())

(* --- requests ---------------------------------------------------------------- *)

let resume c ~token ~client_rounds ~flags =
  let reject reason = (c, [ send c (Message.Resume_reject { reason }) ]) in
  let found () =
    match c.env.take_parked token with
    | Some (Live s) -> Some s
    | Some (Spooled blob) -> (
      try
        let snap = Snapshot.decode blob in
        Some (of_snapshot c ~adm:(Admission.import c.env.admission snap.admission) snap)
      with Wire.Malformed _ -> None)
    | None -> None
  in
  match c.attached with
  | Some _ -> reject "resume on an established connection"
  | None when not (granted c.env.grants Message.flag_resume) ->
    (* a capability the server never grants: name the violation instead
       of pretending the token expired *)
    Metrics.incr m_resume_rejected;
    reject (violation "resume is not enabled on this server")
  | None -> (
    match found () with
    | Some s ->
      let c = attach c s in
      s.granted <- flags land c.env.grants;
      let reply = if s.server_rounds > client_rounds then s.last_reply else "" in
      Metrics.incr m_resume_accepted;
      let ack =
        send c (Message.Resume_ack { server_rounds = s.server_rounds; reply; flags = s.granted })
      in
      ({ c with crc = granted s.granted Message.flag_crc32; negotiated = true }, [ ack ])
    | None ->
      Metrics.incr m_resume_rejected;
      (* a token whose boot-id prefix names a previous incarnation can
         never become valid again: say so, typed, so the client fails
         fast instead of burning its retry budget *)
      if String.length token >= 4 && String.sub token 0 4 <> c.env.boot_id then
        reject
          (Channel.server_restarted_reason
         ^ ": resume token was minted by a previous server incarnation")
      else reject "unknown or expired resume token")

let hello c s req ~flags ~spec =
  let c = { c with negotiated = true } in
  let reply =
    match call c s req with
    | Message.Welcome w ->
      (* transport-owned negotiation: grant = offer AND support, and
         mint the resume token here — the core handler stays
         transport-agnostic.  Application capabilities the handler
         already granted (packing, catalog) are preserved. *)
      s.granted <-
        flags land c.env.grants lor (w.flags land (Message.flag_packing lor Message.flag_catalog));
      s.token <- (if granted s.granted Message.flag_resume then c.env.mint_token () else "");
      s.server_len <- w.series_length;
      Message.Welcome { w with flags = s.granted; resume_token = s.token }
    | other -> other
  in
  (* Admission at Hello time: the declared spec against the session
     budgets — a rejected session never reaches Phase1's encryptions. *)
  let verdict =
    match spec with
    | Some spec when s.server_len > 0 -> Admission.declare s.adm ~spec ~server_len:s.server_len
    | _ -> Admission.Admit
  in
  admit c verdict (fun () ->
      (* the Welcome itself travels plain; everything after it is
         protected once the client has seen the grant *)
      let c, actions = counted c reply in
      ({ c with crc = c.crc || granted s.granted Message.flag_crc32 }, actions))

(* Price the request in DP cells before any decryption: a single
   oversized batch cannot buy crypto cycles the session's budget
   (configured or declared) does not cover. *)
let application c s req =
  let verdict =
    match req with
    | Message.Query_submit { segments; indices; _ } ->
      (* a query re-budgets the cell ledger up front: the declared
         candidate sketch is what the pruning rounds may spend *)
      Admission.declare_query s.adm ~candidates:(Array.length indices) ~segments
    | _ -> (
      match Admission.cells_of_request req with
      | Some (kind, count) -> Admission.charge_cells s.adm ~kind ~count ~server_len:s.server_len
      | None -> Admission.Admit)
  in
  admit c verdict (fun () ->
      let reply = call c s req in
      (* track the active record so the cell ledger follows catalog
         re-selection *)
      (match (req, reply) with
       | _, (Message.Catalog_reply lengths | Message.Catalog_list_reply { lengths; _ }) ->
         s.catalog <- Some lengths
       | Message.Select_request i, Message.Select_ack _ -> (
         Admission.reselect s.adm;
         match s.catalog with
         | Some lens when i >= 0 && i < Array.length lens -> s.server_len <- lens.(i)
         | _ -> ())
       | _ -> ());
      counted c reply)

let on_request c = function
  | Message.Resume { token; client_rounds; flags } -> resume c ~token ~client_rounds ~flags
  | req -> (
    let c, s = session c in
    s.requests <- s.requests + 1;
    match req with
    | Message.Hello { flags; spec } -> hello c s req ~flags ~spec
    | Message.Bye ->
      (* orderly end: nothing to park, the token dies here — the spooled
         snapshot too, or a client could resurrect a session it closed *)
      let drop = if c.env.spooling && s.token <> "" then [ Drop_snapshot s.token ] else [] in
      s.token <- "";
      let c, actions = counted c (Message.Bye_ack { server_seconds = s.handler_seconds }) in
      close (c, drop @ actions) Completed
    | (Message.Stats_req | Message.Health_req | Message.Metrics_req) as probe ->
      (* sessionless probes (no Hello yet) are open introspection, and
         the slot they were admitted to is theirs, not a session's; once
         a session has negotiated, Metrics follows the granted
         capability *)
      counted c
        (page c.env probe ~probe_slot:(not c.negotiated)
           ~metrics:
             (granted c.env.grants Message.flag_metrics
             && ((not c.negotiated) || granted s.granted Message.flag_metrics))
           ~denied:(fun () -> violation "metrics exposition was not granted on this session"))
    | req -> application c s req)

(* A flags-0 session shipping CRC-32 trailers makes the codec choke on
   4 trailing bytes that happen to be the CRC of the rest. *)
let crc_trailer frame =
  let n = String.length frame in
  n > 4
  && Crc32.digest (String.sub frame 0 (n - 4)) = Wire.u32_at frame (n - 4)

let on_frame c frame =
  let bytes = String.length frame in
  (* Byte/frame budgets are charged before the codec even runs: an
     attached session pays for every frame it ships.  (The opening frame
     of a connection — Hello or Resume, bounded by the frame cap and
     answered without crypto — is exempt; the ledger attaches with the
     session.) *)
  let verdict =
    match c.attached with Some s -> Admission.charge_frame s.adm ~bytes | None -> Admission.Admit
  in
  if verdict <> Admission.Admit then Stats.record_received c.stats ~bytes ~values:0;
  admit c verdict (fun () ->
      match Message.decode frame with
      | exception Wire.Malformed m ->
        Stats.record_received c.stats ~bytes ~values:0;
        if (not c.crc) && crc_trailer frame then
          (* name the violation instead of hiding it behind a generic
             parse error, and end the session: the peer's framing
             disagrees with what was negotiated *)
          let m = violation "CRC-32 trailer on a session without the crc32 grant" in
          close (counted c (Message.Error_reply m)) (Client_error m)
        else
          (* a malformed payload inside a well-framed message is
             answerable in-band; the session survives *)
          counted c (Message.Error_reply ("malformed request: " ^ m))
      | msg -> (
        Stats.record_received c.stats ~bytes ~values:(Message.values_in msg);
        match msg with
        | Message.Request req -> on_request c req
        | Message.Reply _ -> counted c (Message.Error_reply "expected a request")))

let serve c = function
  | Frame frame -> on_frame c frame
  | Eof ->
    (* EOF without Bye: a resumable client may come back *)
    let resumable = match c.attached with Some s -> s.token <> "" | None -> false in
    close (c, []) (if resumable then Disconnected else Completed)
  | Timeout timer ->
    let outcome, message =
      match timer with
      | Deadline -> (Deadline_exceeded, "session deadline exceeded")
      | Idle | Probe -> (Idle_timeout, "session idle timeout")
    in
    close (c, [ Notify { frame = encode (Message.Error_reply message); crc = c.crc } ]) outcome
  | Stalled ->
    (* the peer was mid-frame but made no byte progress within the
       watchdog — the slowloris shape.  Not parked: a trickler does not
       deserve a resume slot. *)
    Metrics.incr m_stalled;
    let frame = encode (Message.Error_reply "slow peer: no frame progress within watchdog") in
    close (c, [ Notify { frame; crc = c.crc } ]) Slow_peer
  | Lost -> close (c, []) Disconnected
  | Failed m -> close (c, []) (Client_error m)

(* --- refusing ---------------------------------------------------------------- *)

(* Probes answered after the first one before the connection is closed. *)
let probe_budget = 64

(* The monitoring channel must keep working precisely when the server is
   refusing work: a connection whose first frame is a probe is answered
   (and its follow-ups, ending at Bye, silence or the budget) without a
   session slot.  Anything else — including silence — is a protocol
   client and gets Busy with the retry-after hint. *)
let refuse p event =
  let hang_up = [ Close { outcome = Completed; park = false } ] in
  let notify reply = Notify { frame = encode reply; crc = false } in
  let request =
    match event with
    | Frame frame -> ( try Some (Message.decode frame) with _ -> None)
    | Eof | Timeout _ | Stalled | Lost | Failed _ -> None
  in
  match request with
  | Some (Message.Request ((Message.Stats_req | Message.Health_req | Message.Metrics_req) as r)) ->
    let p = { p with answered = p.answered + 1 } in
    (* probe connections carry no negotiated grant: the only gate is the
       server-side switch *)
    let reply =
      page p.penv r ~probe_slot:false
        ~metrics:(granted p.penv.grants Message.flag_metrics) ~denied:(fun () ->
          "capability violation: metrics exposition is disabled")
    in
    (Refusing p, notify reply :: (if p.answered > probe_budget then hang_up else []))
  | Some (Message.Request Message.Bye) when p.answered > 0 ->
    (Refusing p, notify (Message.Bye_ack { server_seconds = 0.0 }) :: hang_up)
  | _ when p.answered > 0 -> (Refusing p, hang_up)
  | _ ->
    let frame = encode (Message.Busy { retry_after_s = p.retry_after_s }) in
    (Refusing p, Refuse { frame; shed = p.shed } :: hang_up)

let step t event =
  match t with
  | Refusing p -> refuse p event
  | Serving c ->
    let c, actions = serve c event in
    (Serving c, actions)

(* --- reading and accounting ---------------------------------------------------- *)

let crc = function Serving c -> c.crc | Refusing _ -> false
let guarded = function Serving _ -> true | Refusing _ -> false

(* The earliest of the idle and overall deadlines, tagged with which one
   it is so a timeout maps to the right outcome. *)
let deadline = function
  | Refusing p -> Some (p.penv.now () +. (if p.answered = 0 then 0.5 else 2.0), Probe)
  | Serving c -> (
    let overall = match c.attached with Some s -> s.deadline | None -> c.opened in
    match (Option.map (fun s -> c.env.now () +. s) c.env.idle_timeout_s, overall) with
    | None, None -> None
    | Some i, None -> Some (i, Idle)
    | None, Some d -> Some (d, Deadline)
    | Some i, Some d -> if d <= i then Some (d, Deadline) else Some (i, Idle))

let attached = function Serving c -> c.attached | Refusing _ -> None
let stats = function Serving c -> c.stats | Refusing _ -> Stats.create ()

let requests = function
  | Serving { attached = Some s; base_requests; _ } -> s.requests - base_requests
  | _ -> 0

let handler_seconds = function
  | Serving { attached = Some s; base_handler; _ } -> s.handler_seconds -. base_handler
  | _ -> 0.0
