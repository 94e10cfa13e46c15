(* The traced run: per-layer metrics for one workload.

   It runs the unit-cost rungs, then alternates untraced and traced runs
   of the workload's reference operation (index 0, the same seeded
   transcript every time) until the time is up, [min_runs] times at
   least.  A traced run is one with a telemetry sink registered: it
   records the benchmark's spans, the library's own, and the server's
   handler time per request.  From them come the per-layer metrics, the
   reconciliation of the operation's wall time against op counts x rung
   unit costs, and the tracing overhead.  Every traced operation must
   move exactly the bytes and rounds of the untraced one. *)

open Ppst.Import
module W = Workload
module Cost = Ppst.Cost
module Metrics = Ppst_telemetry.Metrics
module Telemetry = Ppst_telemetry.Telemetry

(* Every event of the traced operations, newest first. *)
let recorded : Telemetry.event list ref = ref []

let memory_sink =
  { Telemetry.emit = (fun ev -> recorded := ev :: !recorded); flush = (fun () -> ()) }

(* Request kinds reported as metrics, each a group of wire tags that
   every workload sends: phase 1, the masked extreme rounds in any of
   their forms, and the reveal.  [server.handle_s] and [server.requests]
   cover every kind; the report prints each kind seen. *)
let groups =
  Message.
    [
      ("phase1", [ tag_phase1_request ]);
      ( "rounds",
        [ tag_min_request; tag_max_request; tag_batch_min_request; tag_batch_max_request;
          tag_packed_min_request; tag_packed_max_request ] );
      ("reveal", [ tag_reveal_request ]);
    ]

let of_tags tags r = match tags with Some ts -> List.mem r.W.tag ts | None -> true

let handler_seconds ?tags reqs =
  List.fold_left (fun acc r -> if of_tags tags r then acc +. r.W.seconds else acc) 0.0 reqs

let count_requests ?tags reqs = List.length (List.filter (of_tags tags) reqs)

(* The frame codec over an operation's frames, as the channel runs it:
   encode, decode, and on TCP the CRC trailer. *)
let codec_seconds ~crc frames =
  let once () =
    let t0 = Summary.now () in
    List.iter
      (fun msg ->
        let s = Message.encode msg in
        if crc then ignore (Ppst_transport.Crc32.digest s);
        ignore (Message.decode s))
      frames;
    Summary.now () -. t0
  in
  Summary.median (List.init 3 (fun _ -> once ()))

(* Ciphertexts the server encrypted for phase 1 and pruning sketches:
   the values of its Phase1_reply and Query_sketch frames. *)
let phase1_encryptions frames =
  List.fold_left
    (fun acc msg ->
      match msg with
      | Message.Reply (Message.Phase1_reply _ | Message.Query_sketch _) ->
        acc + Message.values_in msg
      | _ -> acc)
    0 frames

(* Client scalar multiplications by full-width exponents: the unpacked
   phase-1 cell [Enc(y)^(-2x)] (m per server element and dimension), the
   pruning round's [Enc(Hi)^(-w)] (one per sketch slot) and the verdict
   blinding [Enc(p)^rho] (one per candidate).  The packed profile's
   cells multiply by small positive powers and stay with the additions. *)
let full_width_scalar_muls ~packed ~m frames =
  List.fold_left
    (fun acc msg ->
      match msg with
      | Message.Reply (Message.Phase1_reply elems) when not packed ->
        Array.fold_left (fun a e -> a + (m * Array.length e.Message.coords)) acc elems
      | Message.Reply (Message.Query_sketch sketches) ->
        Array.fold_left (fun a sk -> a + Array.length sk.Message.hi) acc sketches
      | Message.Request (Message.Verdict_request v) -> acc + Array.length v
      | _ -> acc)
    0 frames

(* Packed profile: the slots the client packed, and the Montgomery
   multiplications Horner packing spent on them — slot_bits squarings
   and one product for every slot but the first of each pack. *)
let packed_slots frames =
  List.fold_left
    (fun (slots, mults) msg ->
      match msg with
      | Message.Request
          ( Message.Packed_min_request { slot_bits; counts; packed }
          | Message.Packed_max_request { slot_bits; counts; packed } ) ->
        let k = Array.fold_left ( + ) 0 counts in
        (slots + k, mults + ((k - Array.length packed) * (slot_bits + 1)))
      | _ -> (slots, mults))
    (0, 0) frames

let pool_refill_entries () =
  (Metrics.histogram_snapshot (Metrics.histogram "paillier.pool.refill")).Metrics.sum

(* Predicted wall = Σ count x unit cost, each count priced by one rung at
   the workload's key size.  Phase-1 and
   sketch encryptions are full key-holder encryptions; the remaining
   server encryptions re-encrypt replies (fast subgroup noise when
   packed).  A packed client's Horner packing is priced per Montgomery
   multiplication; its packed slots are counted as homomorphic ops but
   cost no addition.  A packed client refills its pool on a background
   Domain, so only the time it blocked on the refill ([offline_s], from
   its Cost record) is on the wall. *)
let reconcile w ~rungs ~count ~codec_s ~offline_s ~wall =
  let keyed name = Printf.sprintf "rung.%s.k%d" name w.W.key_bits in
  let packed = W.packing w in
  let terms =
    [
      ( "client pool-refill entries",
        (if packed then 0.0 else count "pool_refills"),
        keyed "paillier.pool_refill" );
      ("client pool misses (online r^n)", count "pool_misses", keyed "paillier.pool_refill");
      ("client online encryptions", count "client_enc", keyed "paillier.encrypt_pooled");
      ("client packing mont_muls", count "pack_mults", keyed "montgomery.mul");
      ("client full-width scalar_muls", count "scalar_muls", keyed "paillier.scalar_mul");
      ( "client other homomorphic ops",
        count "client_hom" -. count "scalar_muls" -. count "packed_slots",
        keyed "paillier.add" );
      ("server decryptions", count "server_dec", keyed "paillier.decrypt_crt");
      ("server phase-1 encryptions", count "phase1_enc", keyed "paillier.encrypt_sk");
      ( "server reply encryptions",
        count "server_enc" -. count "phase1_enc",
        keyed (if packed then "fixed_base.pow" else "paillier.encrypt_sk") );
      ( "channel rounds",
        count "rounds",
        if W.is_tcp w then "rung.channel.round.tcp" else "rung.channel.round.local" );
    ]
  in
  let rows =
    List.filter_map
      (fun (label, c, rung) ->
        if c = 0.0 then None
        else
          let u = Rungs.find rungs rung *. 1e-9 in
          Some (label, c, rung, u, c *. u))
      terms
    @ (if packed then
         [ ("client blocked on refill", 1.0, "client.offline_s", offline_s, offline_s) ]
       else [])
    @ [ ("frame codec (replayed)", 1.0, "transport.codec_s", codec_s, codec_s) ]
  in
  let predicted = List.fold_left (fun a (_, _, _, _, s) -> a +. s) 0.0 rows in
  Printf.printf "  reconciliation of the reference operation (%.4f s measured):\n" wall;
  List.iter
    (fun (label, c, rung, u, s) ->
      Printf.printf "    %-30s %9.0f x %-40s %12.3f us = %9.4f s\n" label c rung (u *. 1e6) s)
    rows;
  Printf.printf "    predicted %.4f s, residual %.4f s (%.1f%% of measured)\n" predicted
    (wall -. predicted)
    (100.0 *. (wall -. predicted) /. wall);
  (predicted, (wall -. predicted) /. wall)

(* The TCP server child's report: per session id, its request records and
   crypto-op counters, in session order. *)
let parse_child_report lines =
  let reqs = Hashtbl.create 16 and ops = Hashtbl.create 16 in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "req"; sid; tag; at; secs ] ->
        let session = int_of_string sid in
        let r =
          {
            W.session;
            tag = int_of_string tag;
            at = float_of_string at;
            seconds = float_of_string secs;
          }
        in
        Hashtbl.replace reqs session
          (r :: Option.value ~default:[] (Hashtbl.find_opt reqs session))
      | [ "ops"; sid; enc; dec; hom ] ->
        Hashtbl.replace ops (int_of_string sid)
          {
            Cost.encryptions = int_of_string enc;
            decryptions = int_of_string dec;
            homomorphic = int_of_string hom;
          }
      | _ -> ())
    lines;
  Hashtbl.fold (fun sid _ acc -> sid :: acc) reqs []
  |> List.sort compare
  |> List.map (fun sid -> (List.rev (Hashtbl.find reqs sid), Hashtbl.find_opt ops sid))

(* One traced run of the reference operation, with what the layers below
   it reported. *)
type op = {
  sample : W.sample;
  frames : Message.t list;  (* every frame, for the codec replay *)
  requests : W.request_record list;  (* the server's, per request *)
  server_ops : Cost.ops;
  refills : float;  (* pool-refill entries the client paid *)
  codec_s : float;
  wire_s : float;  (* TCP: wall above the same-seed loopback replay *)
}

(* An operation's two stages: everything before its first exact run
   (connect, and on a catalog the listing and the stage-1 pruning), then
   the exact runs, from the first Phase1_request to the operation's end. *)
let stages o =
  match List.find_opt (fun r -> r.W.tag = Message.tag_phase1_request) o.requests with
  | Some r -> (r.W.at -. o.sample.W.start, o.sample.W.stop -. r.W.at)
  | None -> (nan, nan)

let layer_metrics w env ~rungs ~untraced ops =
  let mk = Metric.make in
  let med f = Summary.median (List.map f ops) in
  let first = List.hd ops in
  let s0 = first.sample in
  let client_ops = Cost.client_ops s0.W.cost in
  let slots, pack_mults = packed_slots first.frames in
  let counts =
    [
      ("pool_refills", first.refills);
      ("pool_misses", float_of_int (Cost.pool_misses s0.W.cost));
      ("client_enc", float_of_int client_ops.Cost.encryptions);
      ("client_hom", float_of_int client_ops.Cost.homomorphic);
      ("server_enc", float_of_int first.server_ops.Cost.encryptions);
      ("server_dec", float_of_int first.server_ops.Cost.decryptions);
      ("phase1_enc", float_of_int (phase1_encryptions first.frames));
      ( "scalar_muls",
        float_of_int
          (full_width_scalar_muls ~packed:(W.packing w) ~m:(Series.length env.W.x)
             first.frames) );
      ("packed_slots", float_of_int slots);
      ("pack_mults", float_of_int pack_mults);
      ("rounds", float_of_int s0.W.rounds);
    ]
  in
  let count name = List.assoc name counts in
  Printf.printf "  server handler time by request kind (first traced operation):\n";
  List.sort_uniq compare (List.map (fun r -> r.W.tag) first.requests)
  |> List.iter (fun tag ->
         Printf.printf "    %-14s %6d requests %10.4f s\n" (W.kind_name tag)
           (count_requests ~tags:[ tag ] first.requests)
           (handler_seconds ~tags:[ tag ] first.requests));
  Option.iter
    (fun r ->
      Printf.printf "  query: %d of %d candidates pruned, %d exact runs\n" r.Ppst.Query.pruned
        r.Ppst.Query.total r.Ppst.Query.evaluated)
    s0.W.query;
  if W.is_tcp w then
    Printf.printf "  transport: TCP wall above the same-seed loopback replay %.4f s\n"
      (med (fun o -> o.wire_s));
  let wall = med (fun o -> o.sample.W.wall) in
  let predicted, residual =
    reconcile w ~rungs ~count ~codec_s:(med (fun o -> o.codec_s))
      ~offline_s:(med (fun o -> Cost.client_offline_seconds o.sample.W.cost))
      ~wall
  in
  let phase_seconds phases o =
    List.fold_left
      (fun a p -> a +. Cost.client_seconds o.sample.W.cost p +. Cost.server_seconds o.sample.W.cost p)
      0.0 phases
  in
  [
    mk "server.handle_s" "s" (med (fun o -> handler_seconds o.requests));
    mk "server.requests" "count" (float_of_int (count_requests first.requests));
  ]
  @ List.concat_map
      (fun (group, tags) ->
        [
          mk ("server.handle_s." ^ group) "s" (med (fun o -> handler_seconds ~tags o.requests));
          mk ("server.requests." ^ group) "count"
            (float_of_int (count_requests ~tags first.requests));
        ])
      groups
  @ [
    mk "client.connect_s" "s" (med (fun o -> o.sample.W.connect_s));
    mk "client.offline_s" "s" (med (fun o -> Cost.client_offline_seconds o.sample.W.cost));
    mk "client.online_s" "s" (med (fun o -> Cost.client_total_seconds o.sample.W.cost));
    mk "cost.phase1_s" "s" (med (phase_seconds [ Cost.Phase1 ]));
    mk "cost.phase23_s" "s" (med (phase_seconds [ Cost.Phase2; Cost.Phase3 ]));
    mk "cost.client_enc" "count" (count "client_enc");
    mk "cost.client_hom" "count" (count "client_hom");
    mk "cost.server_enc" "count" (count "server_enc");
    mk "cost.server_dec" "count" (count "server_dec");
    mk "cost.pool_refills" "count" (count "pool_refills");
    mk "transport.codec_s" "s" (med (fun o -> o.codec_s));
    mk "query.exact_runs" "count"
      (match s0.W.query with Some r -> float_of_int r.Ppst.Query.evaluated | None -> 1.0);
    mk "query.stage1_s" "s" (med (fun o -> fst (stages o)));
    mk "query.stage2_s" "s" (med (fun o -> snd (stages o)));
    mk "reconcile.predicted_s" "s" predicted;
    mk "reconcile.residual_frac" "fraction" residual;
    mk "trace.overhead_frac" "fraction"
      ((wall /. Summary.median (List.map (fun s -> s.W.wall) untraced)) -. 1.0);
  ]

(* The JSONL trace: one line per event ([Telemetry.event_to_json]). *)
let write_trace path events =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun ev ->
          output_string oc (Telemetry.event_to_json ev);
          output_char oc '\n')
        events)

(* Traced runs of the reference operation, at least; per-operation
   numbers are their medians. *)
let min_runs = 3

let run ?sizes w ~seed ~seconds =
  let t_begin = Summary.now () in
  let tcp = W.is_tcp w in
  (* forks first: no Domain may exist yet (see Tcp) *)
  let health = Rungs.spawn_health_server () in
  let env = W.setup ~trace:true w ~seed in
  (* TCP: the untraced sessions go to a server of their own that records
     nothing, so the overhead includes the server's recording *)
  let plain = if tcp then W.setup w ~seed else env in
  let rungs =
    Fun.protect
      ~finally:(fun () -> ignore (Tcp.stop health))
      (fun () -> Rungs.run ?sizes ~tcp_port:health.Tcp.port ())
  in
  let rec loop acc =
    let untraced = W.op plain ~index:0 in
    Telemetry.add_sink memory_sink;
    let r0 = pool_refill_entries () in
    let traced = W.op env ~index:0 in
    let refills = pool_refill_entries () -. r0 in
    (* TCP: the same-seed loopback replay supplies the frames for the
       codec replay and the wall without the socket path *)
    let replay = if tcp then Some (W.op ~loopback:true env ~index:0) else None in
    Telemetry.clear_sinks ();
    let acc = (untraced, traced, refills, replay) :: acc in
    if List.length acc < min_runs || Summary.now () < t_begin +. seconds then loop acc
    else List.rev acc
  in
  let runs = loop [] in
  (* the traced TCP server saw the traced sessions only, in order *)
  let child_traced =
    match env.W.server with Some s -> parse_child_report (Tcp.stop s) | None -> []
  in
  if plain != env then W.dispose plain;
  let ops =
    List.mapi
      (fun i (_, s, refills, replay) ->
        let requests, server_ops =
          match (tcp, List.nth_opt child_traced i) with
          | true, Some (reqs, Some ops) -> (reqs, ops)
          | true, _ -> ([], Cost.server_ops s.W.cost)
          | false, _ ->
            (s.W.requests, Option.value s.W.server_ops ~default:(Cost.server_ops s.W.cost))
        in
        let frames = match replay with Some r -> r.W.messages | None -> s.W.messages in
        let wire_s = match replay with Some r -> s.W.wall -. r.W.wall | None -> 0.0 in
        let codec_s = codec_seconds ~crc:tcp frames in
        { sample = s; frames; requests; server_ops; refills; codec_s; wire_s })
      runs
  in
  let untraced = List.map (fun (u, _, _, _) -> u) runs in
  let reference = List.hd untraced in
  let moved =
    List.filter
      (fun o -> o.sample.W.bytes <> reference.W.bytes || o.sample.W.rounds <> reference.W.rounds)
      ops
  in
  if moved <> [] then
    Printf.eprintf "ladder: %d traced operation(s) moved wire_bytes/rounds off the untraced run\n%!"
      (List.length moved);
  Printf.printf "%s seed %d: %d traced / %d untraced runs of the reference operation\n" w.W.name
    seed (List.length ops) (List.length untraced);
  let layer = layer_metrics w env ~rungs ~untraced ops in
  Metric.print_table layer;
  (* on TCP the server child's per-request records join the trace as
     points, each with its handler seconds *)
  let child_points =
    List.concat_map
      (fun (reqs, _) ->
        List.map
          (fun r ->
            Telemetry.Point
              {
                name = "server_loop.handle";
                t = r.W.at;
                attrs =
                  [ ("session", Telemetry.Int r.W.session); ("opcode", Telemetry.Opcode r.W.tag);
                    ("dt", Telemetry.Duration r.W.seconds) ];
              })
          reqs)
      child_traced
  in
  let path = Printf.sprintf "_ladder/trace-%s-%d.jsonl" w.W.name seed in
  write_trace path (List.rev_append !recorded child_points);
  Printf.printf "  trace written to %s\n" path;
  let samples =
    untraced @ List.map (fun o -> o.sample) ops @ List.filter_map (fun (_, _, _, r) -> r) runs
  in
  let failed = List.length (List.filter (fun s -> not s.W.ok) samples) + List.length moved in
  (layer @ rungs, List.length samples, failed)
