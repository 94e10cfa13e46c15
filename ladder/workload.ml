(* The four benchmark workloads: how their inputs derive from the seed,
   how each is set up, and one closed-loop operation of each (a pairwise
   session or a catalog query), checked against plaintext.

   Sessions are assembled the way Protocol.run assembles them (a Server
   over a key generated once in set-up, Channel.local or a TCP
   Channel.connect, Client.connect, Protocol.runner_of_spec), so the
   server's handler time is observable per request kind.

   Every workload is one sequential client, and every party runs
   single-lane (no Domain pool): on a host of a few shared vCPUs, more
   threads than that measure the scheduler, and CPU seconds split
   cleanly between the parties only when each party's work runs on the
   thread that timed it. *)

open Ppst.Import
module Generate = Ppst_timeseries.Generate
module Server_loop = Ppst_transport.Server_loop
module Client = Ppst.Client
module Server = Ppst.Server
module Protocol = Ppst.Protocol
module Query = Ppst.Query
module Cost = Ppst.Cost
module Telemetry = Ppst_telemetry.Telemetry

let max_value = 100

type shape =
  | Pair of { spec : Protocol.spec; length : int; tcp : bool }
  | Catalog of { records : int; twins : int; length : int; band : int }

type t = {
  name : string;
  key_bits : int;
  shape : shape;
  warmup_s : float;  (* closed-loop warm-up before timing (TCP) *)
}

let pair_packed =
  {
    name = "pair-packed";
    key_bits = 1024;
    shape =
      Pair
        { spec = Protocol.spec ~strategy:`Wavefront ~packing:true `Dtw; length = 10; tcp = false };
    warmup_s = 0.0;
  }

let pair_wire =
  {
    name = "pair-wire";
    key_bits = 512;
    shape = Pair { spec = Protocol.spec ~strategy:`Wavefront `Dfd; length = 4; tcp = false };
    warmup_s = 0.0;
  }

let tcp_paper =
  {
    name = "tcp-paper";
    key_bits = 64;
    shape = Pair { spec = Protocol.spec `Dtw; length = 24; tcp = true };
    warmup_s = 2.0;
  }

let catalog =
  {
    name = "catalog";
    key_bits = 256;
    shape = Catalog { records = 16; twins = 1; length = 16; band = 2 };
    warmup_s = 0.0;
  }

let all = [ pair_packed; pair_wire; tcp_paper; catalog ]

(* The same drivers at toy size, for the smoke run: 64-bit keys, 4 x 4
   series, a 1-vs-4 catalog. *)
let toy w =
  let shape =
    match w.shape with
    | Pair p -> Pair { p with length = 4 }
    | Catalog c -> Catalog { c with records = 4; length = 4; band = 1 }
  in
  { w with key_bits = 64; shape; warmup_s = Float.min w.warmup_s 0.2 }

let find name = List.find_opt (fun w -> w.name = name) all

let is_tcp w = match w.shape with Pair p -> p.tcp | Catalog _ -> false
let packing w = match w.shape with Pair p -> p.spec.Protocol.packing | Catalog _ -> false

(* ---- inputs from the seed --------------------------------------------- *)

let series_seed ~seed salt = (seed * 7919) + salt

(* [s] plus independent noise in {-1, 0, +1} per coordinate. *)
let noisy ~seed ~salt s =
  let rng = Secure_rng.of_seed_string (Printf.sprintf "ladder/noise/%d/%d" seed salt) in
  Series.map (Array.map (fun v -> Stdlib.max 0 (v + Secure_rng.int rng 3 - 1))) s

(* The catalog: one patient's recording at index 0 (the query is a noisy
   copy of it), [twins] more noisy recordings of the same patient, and
   unrelated ECG-like records at four other amplitude scales on a raised
   baseline (52 above the patient's range).  Query.top_k seeds its
   pruning threshold from the first candidate in catalog order, so the
   patient sits first; every raised record then differs from the query
   by at least 2 per coordinate, which makes its segment gap sum at least
   32 against a cut of at most 17 — the secure bound always discards it,
   and the twins (within the threshold's reach) always survive.  The
   pruned count is therefore the same for every seed. *)
let catalog_inputs ~seed ~records ~twins ~length =
  let base = Generate.ecg_int ~seed:(series_seed ~seed 1) ~length ~max_value:50 in
  let store = Store.create () in
  for i = 0 to records - 1 do
    let s =
      if i = 0 then base
      else if i <= twins then noisy ~seed ~salt:i base
      else
        let scale = [| 20; 30; 40; 48 |].(i mod 4) in
        Series.map
          (Array.map (fun v -> v + 52))
          (Generate.ecg_int ~seed:(series_seed ~seed (100 + i)) ~length ~max_value:scale)
    in
    Store.insert store ~id:(Printf.sprintf "rec%03d" i) s
  done;
  (noisy ~seed ~salt:0 base, store)

(* ---- set-up ------------------------------------------------------------- *)

type oracle = Distance of int | Top1 of { index : int; distance : int }

type env = {
  w : t;
  seed : int;
  params : Ppst.Params.t;
  sk : Paillier.private_key;
  x : Series.t;  (* the client's series *)
  served : [ `Series of Series.t | `Store of Store.t ];  (* what the server holds *)
  bound : int;  (* advertised coordinate bound *)
  oracle : oracle;
  server : Tcp.t option;
}

let server_rng env =
  Secure_rng.of_seed_string (Printf.sprintf "ladder/%s/%d/server" env.w.name env.seed)

let client_rng env index =
  Secure_rng.of_seed_string
    (Printf.sprintf "ladder/%s/%d/client/%d" env.w.name env.seed index)

let runner_spec env =
  match env.w.shape with
  | Pair p -> p.spec
  | Catalog c -> Protocol.spec ~band:c.band `Dtw

(* Per-request records of a traced server: session, wire tag, start on
   the (system-wide) monotonic clock, and handler seconds. *)
type request_record = { session : int; tag : int; at : float; seconds : float }

let request_tag = function
  | Message.Hello _ -> Message.tag_hello
  | Message.Phase1_request -> Message.tag_phase1_request
  | Message.Min_request _ -> Message.tag_min_request
  | Message.Max_request _ -> Message.tag_max_request
  | Message.Batch_min_request _ -> Message.tag_batch_min_request
  | Message.Batch_max_request _ -> Message.tag_batch_max_request
  | Message.Packed_min_request _ -> Message.tag_packed_min_request
  | Message.Packed_max_request _ -> Message.tag_packed_max_request
  | Message.Reveal_request _ -> Message.tag_reveal_request
  | Message.Catalog_request -> Message.tag_catalog_request
  | Message.Catalog_list_request -> Message.tag_catalog_list_request
  | Message.Select_request _ -> Message.tag_select_request
  | Message.Query_submit _ -> Message.tag_query_submit
  | Message.Verdict_request _ -> Message.tag_verdict_request
  | Message.Bye -> Message.tag_bye
  | Message.Stats_req -> Message.tag_stats_request
  | Message.Health_req -> Message.tag_health_request
  | Message.Metrics_req -> Message.tag_metrics_request
  | Message.Resume _ -> Message.tag_resume

(* The report's name for the request kind of a wire tag. *)
let kind_name tag =
  let names =
    Message.
      [
        (tag_hello, "hello"); (tag_phase1_request, "phase1"); (tag_min_request, "min");
        (tag_max_request, "max"); (tag_batch_min_request, "batch_min");
        (tag_batch_max_request, "batch_max"); (tag_packed_min_request, "packed_min");
        (tag_packed_max_request, "packed_max"); (tag_reveal_request, "reveal");
        (tag_catalog_list_request, "catalog_list"); (tag_select_request, "select");
        (tag_query_submit, "query_submit"); (tag_verdict_request, "verdict"); (tag_bye, "bye");
      ]
  in
  match List.assoc_opt tag names with Some n -> n | None -> Printf.sprintf "0x%02x" tag

(* The CPU stamp the TCP server child takes as each session's handler is
   created, at the session's first request: session id, start on the
   (system-wide) monotonic clock, and the child's process CPU seconds.
   With one sequential client, the CPU between two consecutive stamps is
   everything the server spent on the first session: frame path, CRC,
   handler and the accept of the next.  Untraced, the session's speed
   probe ticks at every request. *)
type session_stamp = { sid : int; opened : float; cpu : float; probe : Probe.t }

(* The forked TCP server: a fresh Server per session over the shared
   key.  It stamps every session and reports the stamps at shutdown.
   With [trace] it also times every request in the handler and reports
   them, with each session's crypto-op counters; without, the handler is
   [Server.handle] behind the probe's tick. *)
let spawn_server ~w ~seed ~sk ~y ~trace =
  Tcp.spawn (fun () ->
      let lock = Mutex.create () in
      let records = ref [] and servers = ref [] and stamps = ref [] in
      let handler ~id ~peer:_ =
        let probe = Probe.create () in
        let stamp = { sid = id; opened = Summary.now (); cpu = Summary.process_cpu (); probe } in
        Mutex.protect lock (fun () -> stamps := stamp :: !stamps);
        let rng = Secure_rng.of_seed_string (Printf.sprintf "ladder/%s/%d/server" w.name seed) in
        let server = Server.create_with_key ~decryption:`Crt ~sk ~rng ~series:y ~max_value () in
        if not trace then
          Server_loop.respond_only (fun req ->
              Probe.tick probe;
              Server.handle server req)
        else begin
          Mutex.protect lock (fun () -> servers := (id, server) :: !servers);
          Server_loop.respond_only (fun req ->
              let t0 = Summary.now () in
              let reply = Server.handle server req in
              let r =
                { session = id; tag = request_tag req; at = t0; seconds = Summary.now () -. t0 }
              in
              Mutex.protect lock (fun () -> records := r :: !records);
              reply)
        end
      in
      let report () =
        List.rev_map
          (fun s ->
            Printf.sprintf "stamp %d %.9f %.9f %.9f %d" s.sid s.opened s.cpu s.probe.Probe.spent
              s.probe.Probe.slices)
          !stamps
        @ List.rev_map
            (fun r -> Printf.sprintf "req %d %d %.9f %.9f" r.session r.tag r.at r.seconds)
            !records
        @ List.map
            (fun (id, s) ->
              let o = Server.ops s in
              Printf.sprintf "ops %d %d %d %d" id o.Cost.encryptions o.Cost.decryptions
                o.Cost.homomorphic)
            !servers
      in
      (handler, report))

(* The key depends on the workload only, not on the seed: prime search
   time varies twofold from key to key, and with one fixed key every
   set-up of every run does the same work. *)
let setup ?(trace = false) w ~seed =
  let key_rng = Secure_rng.of_seed_string (Printf.sprintf "ladder/%s/key" w.name) in
  let _pk, sk = Paillier.keygen ~bits:w.key_bits key_rng in
  let params = Ppst.Params.make ~key_bits:w.key_bits () in
  let x, served, oracle =
    match w.shape with
    | Pair p ->
      let x = Generate.ecg_int ~seed:(series_seed ~seed 1) ~length:p.length ~max_value in
      let y = Generate.ecg_int ~seed:(series_seed ~seed 2) ~length:p.length ~max_value in
      let d =
        match p.spec.Protocol.algo with `Dfd -> Distance.dfd_sq x y | _ -> Distance.dtw_sq x y
      in
      (x, `Series y, Distance d)
    | Catalog c ->
      let x, store =
        catalog_inputs ~seed ~records:c.records ~twins:c.twins ~length:c.length
      in
      (* plaintext scan: smallest banded distance, ties to the lower index *)
      let best = ref None in
      Array.iteri
        (fun i r ->
          match (Distance.dtw_sq_banded ~band:c.band x r, !best) with
          | Some d, Some (_, bd) when d >= bd -> ()
          | Some d, _ -> best := Some (i, d)
          | None, _ -> ())
        (Store.records store);
      let index, distance = Option.get !best in
      (x, `Store store, Top1 { index; distance })
  in
  let served_max =
    match served with `Series y -> Series.max_abs_value y | `Store s -> Store.max_abs_value s
  in
  let bound = Stdlib.max max_value (Stdlib.max (Series.max_abs_value x) served_max) in
  let server =
    match served with
    | `Series y when is_tcp w -> Some (spawn_server ~w ~seed ~sk ~y ~trace)
    | _ -> None
  in
  { w; seed; params; sk; x; served; bound; oracle; server }

let dispose env = Option.iter Tcp.kill env.server

(* The stamps in a server child's report, in session order. *)
let parse_stamps lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "stamp"; sid; opened; cpu; spent; slices ] ->
        let probe = Probe.create () in
        probe.Probe.spent <- float_of_string spent;
        probe.Probe.slices <- int_of_string slices;
        Some
          {
            sid = int_of_string sid;
            opened = float_of_string opened;
            cpu = float_of_string cpu;
            probe;
          }
      | _ -> None)
    lines
  |> List.sort (fun a b -> Float.compare a.opened b.opened)

(* ---- one operation ------------------------------------------------------ *)

type sample = {
  start : float;
  stop : float;
  wall : float;
  client_cpu_s : float;
      (* CPU of this process over the operation, less the server's share
         on loopback *)
  server_cpu_s : float;
      (* loopback: Σ CPU of the handler calls, on the calling thread; TCP:
         nan here, the server child's share comes from its stamps *)
  probe : Probe.t;  (* the slices of a probed operation (none otherwise) *)
  connect_s : float;  (* channel + Hello/Welcome *)
  bytes : int;
  rounds : int;
  ok : bool;
  cost : Cost.t;
  server_ops : Cost.ops option;  (* loopback only; TCP servers report at exit *)
  query : Query.report option;
  requests : request_record list;  (* traced loopback ops *)
  messages : Message.t list;  (* traced loopback ops: every frame, in order *)
}

let failed_sample ~start =
  let stop = Summary.now () in
  {
    start;
    stop;
    wall = stop -. start;
    client_cpu_s = nan;
    server_cpu_s = nan;
    probe = Probe.create ();
    connect_s = 0.0;
    bytes = 0;
    rounds = 0;
    ok = false;
    cost = Cost.create ();
    server_ops = None;
    query = None;
    requests = [];
    messages = [];
  }

(* Spans of one operation carry its sequence number, ("op", Int n), which
   ties each to the enclosing "op" span.  Like the library's own spans
   they are recorded only while a telemetry sink is registered, which is
   what makes an operation traced. *)
let op_seq = Atomic.make 0

let op_span ~index f =
  let op = ("op", Telemetry.Int (Atomic.fetch_and_add op_seq 1)) in
  Telemetry.span ~name:"op" ~attrs:[ op; ("index", Telemetry.Int index) ] (fun () -> f op)

(* A loopback handler that times and records every request (a span with
   its opcode, a record, and both frames for the codec replay). *)
let traced_handler ~op handle requests messages req =
  let tag = request_tag req in
  Telemetry.span ~name:"server.handle" ~attrs:[ op; ("opcode", Telemetry.Opcode tag) ]
  @@ fun () ->
  let t0 = Summary.now () in
  let reply = handle req in
  requests := { session = 0; tag; at = t0; seconds = Summary.now () -. t0 } :: !requests;
  messages := Message.Reply reply :: Message.Request req :: !messages;
  reply

let check_distance env d =
  match env.oracle with Distance e -> Bigint.to_int_exn d = e | Top1 _ -> false

let check_query env (r : Query.report) =
  match env.oracle with
  | Top1 { index; distance } ->
    Array.length r.Query.incomplete = 0
    && Array.length r.Query.hits = 1
    && r.Query.hits.(0).Query.index = index
    && Bigint.to_int_exn r.Query.hits.(0).Query.distance = distance
  | Distance _ -> false

(* Σ CPU seconds of the calling thread inside [handle], into [total]:
   the loopback server's share of an operation.  The client's background
   refill Domain runs meanwhile, so the process clock would not do. *)
let cpu_timed handle total req =
  let c0 = Summary.thread_cpu () in
  let reply = handle req in
  total := !total +. (Summary.thread_cpu () -. c0);
  reply

(* Slices a probed operation takes just before and just after itself. *)
let edge_slices = 3

(* Loopback: both parties in this process; the server is created per
   operation, as Protocol.run does.  A probed operation also takes a
   slice at any request when one is due; the slices' CPU is not the
   operation's. *)
let loopback_op ~probed env ~index =
  let spec = runner_spec env in
  let requests = ref [] and messages = ref [] and server_cpu = ref 0.0 in
  let probe = Probe.create () in
  op_span ~index @@ fun op ->
  if probed then Probe.burst probe edge_slices;
  let edge_spent = probe.Probe.spent in
  let start = Summary.now () and cpu0 = Summary.process_cpu () in
  let rng = server_rng env in
  let server =
    match env.served with
    | `Series y ->
      Server.create_with_key ~decryption:`Crt ~sk:env.sk ~rng ~series:y ~max_value:env.bound ()
    | `Store store ->
      Server.of_store_with_key ~decryption:`Crt ~sk:env.sk ~rng ~store ~max_value:env.bound ()
  in
  let handle = cpu_timed (Server.handle server) server_cpu in
  let handle =
    if probed then (fun req ->
      Probe.tick probe;
      handle req)
    else handle
  in
  let handler =
    if Telemetry.enabled Telemetry.Info then traced_handler ~op handle requests messages
    else handle
  in
  let ch = Channel.local handler in
  let client =
    Telemetry.span ~name:"client.connect" ~attrs:[ op ] (fun () ->
        Client.connect ~params:env.params ~offline:true ~packing:spec.Protocol.packing
          ~query:(match env.w.shape with Catalog _ -> true | Pair _ -> false)
          ~rng:(client_rng env index) ~series:env.x
          ~max_value:env.bound ~distance:spec.Protocol.algo ch)
  in
  let connected = Summary.now () in
  let ok, query =
    Telemetry.span ~name:"client.run" ~attrs:[ op ] (fun () ->
        match env.w.shape with
        | Pair _ -> (check_distance env (Protocol.runner_of_spec spec client), None)
        | Catalog _ ->
          let r = Query.top_k ~spec ~k:1 client in
          (check_query env r, Some r))
  in
  Telemetry.span ~name:"client.finish" ~attrs:[ op ] (fun () -> Client.finish client);
  let stop = Summary.now () and cpu1 = Summary.process_cpu () in
  let ticked = probe.Probe.spent -. edge_spent in
  if probed then Probe.burst probe edge_slices;
  let stats = Channel.stats ch in
  {
    start;
    stop;
    wall = stop -. start;
    client_cpu_s = cpu1 -. cpu0 -. ticked -. !server_cpu;
    server_cpu_s = !server_cpu;
    probe;
    connect_s = connected -. start;
    bytes = Stats.total_bytes stats;
    rounds = Stats.rounds stats;
    ok;
    cost = Client.cost client;
    server_ops = Some (Server.ops server);
    query;
    requests = List.rev !requests;
    messages = List.rev !messages;
  }

(* TCP: a fresh connection per session against the forked Server_loop
   (CRC and resume negotiated by default).  Busy is retried with the
   server's hint a bounded number of times; exhausting it fails the
   operation.  A probed operation takes its client-side slices before
   and after itself only: nothing in the client's round trip calls back
   into the benchmark. *)
let tcp_op ~probed env ~index =
  let port = match env.server with Some s -> s.Tcp.port | None -> assert false in
  let spec = runner_spec env in
  let probe = Probe.create () in
  op_span ~index @@ fun op ->
  if probed then Probe.burst probe edge_slices;
  let start = Summary.now () and cpu0 = Summary.process_cpu () in
  let rec session attempts =
    let ch = Channel.connect ~host:"127.0.0.1" ~port () in
    match
      Telemetry.span ~name:"client.connect" ~attrs:[ op ] (fun () ->
          Client.connect ~params:env.params ~offline:true ~rng:(client_rng env index)
            ~series:env.x ~max_value:env.bound ~distance:spec.Protocol.algo ch)
    with
    | client -> (ch, client)
    | exception Channel.Busy { retry_after_s } when attempts > 0 ->
      (try Channel.close ch with _ -> ());
      Unix.sleepf (Float.min retry_after_s 0.05);
      session (attempts - 1)
  in
  let ch, client = session 50 in
  let connected = Summary.now () in
  let ok =
    Telemetry.span ~name:"client.run" ~attrs:[ op ] (fun () ->
        check_distance env (Protocol.runner_of_spec spec client))
  in
  Telemetry.span ~name:"client.finish" ~attrs:[ op ] (fun () -> Client.finish client);
  let stop = Summary.now () and cpu1 = Summary.process_cpu () in
  if probed then Probe.burst probe edge_slices;
  let stats = Channel.stats ch in
  {
    start;
    stop;
    wall = stop -. start;
    client_cpu_s = cpu1 -. cpu0;
    server_cpu_s = nan;
    probe;
    connect_s = connected -. start;
    bytes = Stats.total_bytes stats;
    rounds = Stats.rounds stats;
    ok;
    cost = Client.cost client;
    server_ops = None;
    query = None;
    requests = [];
    messages = [];
  }

(* One operation, probed on request; any exception counts as a failed
   operation. *)
let op ?(loopback = false) ?(probed = false) env ~index =
  let start = Summary.now () in
  try
    if is_tcp env.w && not loopback then tcp_op ~probed env ~index
    else loopback_op ~probed env ~index
  with e ->
    Printf.eprintf "ladder: %s operation %d failed: %s\n%!" env.w.name index
      (Printexc.to_string e);
    failed_sample ~start
