(* The secure DP engine's differential matrix: every rule × domain ×
   schedule on edge shapes, each run checked against the plaintext
   distance, against its own round plan, and against the ledger and the
   offline pool — plus the plan itself checked against counts written
   down independently of the engine, and DTW/DFD across packing, pool
   size and transport. *)

open Ppst.Import
module Generate = Ppst_timeseries.Generate
module Dp = Ppst.Secure_dp
module Protocol = Ppst.Protocol

let k = Ppst.Params.default.Ppst.Params.k

let shapes =
  let zeros m = Series.create (Array.make m [| 0 |]) in
  let ecg seed length = Generate.ecg_int ~seed ~length ~max_value:30 in
  let vectors seed length = Generate.random_vectors ~seed ~length ~dim:2 ~max_value:30 in
  [
    ("m = 1", ecg 1301 1, ecg 1302 3);
    ("n = 1", ecg 1303 3, ecg 1304 1);
    ("m <> n", ecg 1305 5, ecg 1306 3);
    ("d = 2", vectors 1307 4, vectors 1308 3);
    ("all zero", zeros 3, zeros 4);
    (* m = n makes band |m - n| zero: inner cells with one live predecessor *)
    ("m = n", ecg 1309 4, ecg 1310 4);
  ]

(* Live predecessors of (i, j) in a grid where [inside] picks the
   domain: written out cell by cell, independently of the engine. *)
let live ~inside i j =
  List.length
    (List.filter
       (fun (a, b) -> a >= 0 && b >= 0 && inside a b)
       [ (i - 1, j - 1); (i - 1, j); (i, j - 1) ])

(* Reference counts: interactive rounds under each schedule and the
   values moved.  Every non-origin cell runs one minimum instance over
   its live predecessors when it has two or more of them, and DFD one
   two-input maximum; the row-major schedule gives each its own round,
   the anti-diagonal one batches each inner diagonal (and leaves the
   borders as single rounds). *)
let reference ~max_finish ~margin ~inside ~m ~n ~d =
  let rows = m + margin and cols = n + margin in
  let values = ref ((n * (d + 1)) + 2) and sequential = ref 0 in
  let diag_min = Hashtbl.create 16 and diag_max = Hashtbl.create 16 in
  let border = ref 0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if (i, j) <> (0, 0) && inside i j then begin
        let p = live ~inside i j in
        let inner = i > 0 && j > 0 in
        if p >= 2 then begin
          values := !values + p + k;
          incr sequential;
          Hashtbl.replace diag_min (i + j) ()
        end;
        if max_finish then begin
          values := !values + 2 + k;
          incr sequential;
          if inner then Hashtbl.replace diag_max (i + j) () else incr border
        end
      end
    done
  done;
  (!values, !sequential, !border + Hashtbl.length diag_min + Hashtbl.length diag_max)

(* The paper-style closed forms for the full grid, which the reference
   must reproduce (m, n >= 1). *)
let closed_form_values name ~m ~n ~d =
  match name with
  | "dtw" -> (n * (d + 1)) + ((m - 1) * (n - 1) * (k + 3)) + 2
  | "dfd" ->
    (n * (d + 1)) + ((m - 1 + (n - 1)) * (k + 2)) + ((m - 1) * (n - 1) * (k + 3 + k + 2)) + 2
  | _ -> (n * (d + 1)) + (m * n * (k + 3)) + 2

let closed_form_rounds name ~m ~n schedule =
  let diagonals = if m > 1 && n > 1 then m + n - 3 else 0 in
  match (name, schedule) with
  | "dtw", Dp.Row_major -> (m - 1) * (n - 1)
  | "dtw", Dp.Anti_diagonal -> diagonals
  | "dfd", Dp.Row_major -> (2 * (m - 1) * (n - 1)) + (m - 1) + (n - 1)
  | "dfd", Dp.Anti_diagonal -> (m - 1) + (n - 1) + (2 * diagonals)
  | _, Dp.Row_major -> m * n
  | _, Dp.Anti_diagonal -> m + n - 1

type domain_case = Whole | Band_gap | Band_2

let domain_name = function Whole -> "full" | Band_gap -> "band |m-n|" | Band_2 -> "band 2"

let run_case ~name ~algo ~domain ~strategy (shape, x, y) =
  let m = Series.length x and n = Series.length y and d = Series.dimension x in
  let band =
    match domain with Whole -> None | Band_gap -> Some (abs (m - n)) | Band_2 -> Some 2
  in
  (* inside every shape's coordinate bound, the all-zero one's included *)
  let gap = if algo = `Erp then Some (Array.make d 1) else None in
  let spec = Protocol.spec ?band ~strategy ?gap algo in
  let plain =
    match (algo, band) with
    | `Dtw, None -> Some (Distance.dtw_sq x y)
    | `Dfd, None -> Some (Distance.dfd_sq x y)
    | `Dtw, Some band -> Distance.dtw_sq_banded ~band x y
    | `Dfd, Some band -> Distance.dfd_sq_banded ~band x y
    | _ -> Some (Distance.erp_sq ~gap:(Option.get gap) x y)
  in
  let label what = Printf.sprintf "%s, %s: %s" shape (domain_name domain) what in
  match plain with
  | None -> (
    match Protocol.run ~spec ~seed:"engine" ~x ~y () with
    | _ -> Alcotest.fail (label "infeasible band accepted")
    | exception Dp.Band_too_narrow -> ())
  | Some plain ->
    let drift_before = Ppst.Ledger.drift_events () in
    let r = Protocol.run ~spec ~seed:("engine/" ^ shape) ~x ~y () in
    Alcotest.(check int) (label "distance = plaintext") plain (Protocol.distance_int r);
    (* hello, phase 1, reveal and bye besides the planned rounds *)
    let rule, dp_domain, schedule =
      ( (match algo with `Dtw -> Dp.dtw | `Dfd -> Dp.dfd | _ -> Dp.erp ~gap:(Option.get gap)),
        (match band with Some b -> Dp.Band b | None -> Dp.Full),
        match strategy with `Full -> Dp.Row_major | `Wavefront -> Dp.Anti_diagonal )
    in
    let planned = List.length (Dp.plan rule dp_domain schedule ~m ~n) in
    Alcotest.(check int) (label "rounds = plan") planned (Stats.rounds r.Protocol.stats - 4);
    (match Ppst.Ledger.recent () with
     | e :: _ -> Alcotest.(check int) (label "ledger drift") 0 (Ppst.Ledger.drift e)
     | [] -> Alcotest.fail (label "no ledger entry"));
    Alcotest.(check int) (label "no drift events") drift_before (Ppst.Ledger.drift_events ());
    Alcotest.(check int) (label "pool misses") 0 (Ppst.Cost.pool_misses r.Protocol.cost);
    (* the plan against the independent reference, and the reference
       against the paper-style closed forms on the full grid *)
    let margin = if algo = `Erp then 1 else 0 in
    let inside i j = match band with None -> true | Some b -> abs (i - j) <= b in
    let values, sequential, batched =
      reference ~max_finish:(algo = `Dfd) ~margin ~inside ~m ~n ~d
    in
    Alcotest.(check int) (label "values = reference") values
      (Protocol.expected_values_transferred ~params:Ppst.Params.default ~m ~n ~d spec);
    Alcotest.(check int) (label "rounds = reference")
      (if schedule = Dp.Row_major then sequential else batched)
      planned;
    if band = None then begin
      Alcotest.(check int) (label "reference = closed form")
        (closed_form_values name ~m ~n ~d) values;
      Alcotest.(check int) (label "plan = closed-form rounds")
        (closed_form_rounds name ~m ~n schedule) planned
    end

let cases =
  List.concat_map
    (fun (name, algo, domains) ->
      List.concat_map
        (fun domain ->
          List.map
            (fun (sname, strategy) ->
              Alcotest.test_case
                (Printf.sprintf "%s, %s, %s" name (domain_name domain) sname)
                `Quick
                (fun () -> List.iter (run_case ~name ~algo ~domain ~strategy) shapes))
            [ ("row-major", `Full); ("anti-diagonal", `Wavefront) ])
        domains)
    [
      ("dtw", `Dtw, [ Whole; Band_gap; Band_2 ]);
      ("dfd", `Dfd, [ Whole; Band_gap; Band_2 ]);
      ("erp", `Erp, [ Whole ]);
    ]

(* --- packing × jobs × transport ------------------------------------------ *)

module Server_loop = Ppst_transport.Server_loop

(* The remaining axes of the differential matrix, for DTW and DFD under
   both schedules: packing off/on, one job or a two-lane pool on each
   party, and the loopback channel or TCP to an in-process Server_loop.
   Every party advertises [max_value], which the last shape reaches in
   every coordinate.  Default (64-bit) keys. *)
let max_value = 30

let axis_shapes =
  let at_max m = Series.create (Array.make m [| max_value; max_value |]) in
  List.filter (fun (name, _, _) -> name = "m <> n" || name = "d = 2") shapes
  @ [ ("every coordinate at max_value", at_max 4, at_max 3) ]

let sk =
  lazy
    (snd
       (Paillier.keygen ~bits:Ppst.Params.default.Ppst.Params.key_bits
          (Secure_rng.of_seed_string "engine/axes/keygen")))

(* One TCP loop per test case; the factory serves whatever server the
   cell about to connect has put in [serving]. *)
let with_tcp_loop f =
  let serving = ref None in
  let loop =
    Server_loop.create ~port:0
      ~handler:(fun ~id:_ ~peer:_ ->
        Server_loop.respond_only (Ppst.Server.handle ((Option.get !serving) ())))
      ()
  in
  let runner = Thread.create Server_loop.run loop in
  Fun.protect
    ~finally:(fun () ->
      Server_loop.shutdown loop;
      Thread.join runner)
    (fun () -> f (serving, Server_loop.port loop))

let run_cell ~tcp:(serving, port) ~algo ~plain ~strategy ~packing ~jobs ~transport
    (shape, x, y) =
  let client_pool = Parallel.create jobs and server_pool = Parallel.create jobs in
  Fun.protect
    ~finally:(fun () ->
      Parallel.shutdown client_pool;
      Parallel.shutdown server_pool)
  @@ fun () ->
  let server () =
    Ppst.Server.create_with_key ~workers:server_pool ~sk:(Lazy.force sk)
      ~rng:(Secure_rng.of_seed_string ("engine/axes/server/" ^ shape))
      ~series:y ~max_value ()
  in
  let channel =
    match transport with
    | `Local -> Channel.local (Ppst.Server.handle (server ()))
    | `Tcp ->
      serving := Some server;
      Channel.connect ~host:"127.0.0.1" ~port ()
  in
  let client =
    Ppst.Client.connect ~packing ~workers:client_pool
      ~rng:(Secure_rng.of_seed_string ("engine/axes/client/" ^ shape))
      ~series:x ~max_value ~distance:algo channel
  in
  let label what =
    Printf.sprintf "%s, packing %b, jobs %d, %s: %s" shape packing jobs
      (match transport with `Local -> "local" | `Tcp -> "tcp")
      what
  in
  Alcotest.(check bool) (label "packing active") packing (Ppst.Client.packing client);
  let d = Protocol.runner_of_spec (Protocol.spec ~strategy ~packing algo) client in
  Ppst.Client.finish client;
  Alcotest.(check int) (label "distance = plaintext") (plain x y) (Bigint.to_int_exn d)

let axis_cases =
  List.concat_map
    (fun (name, algo, plain) ->
      List.map
        (fun (sname, strategy) ->
          Alcotest.test_case
            (Printf.sprintf "%s, %s, packing/jobs/transport" name sname)
            `Quick
            (fun () ->
              with_tcp_loop (fun tcp ->
                  List.iter
                    (fun packing ->
                      List.iter
                        (fun jobs ->
                          List.iter
                            (fun transport ->
                              List.iter
                                (run_cell ~tcp ~algo ~plain ~strategy ~packing ~jobs
                                   ~transport)
                                axis_shapes)
                            [ `Local; `Tcp ])
                        [ 1; 2 ])
                    [ false; true ])))
        [ ("row-major", `Full); ("anti-diagonal", `Wavefront) ])
    [ ("dtw", `Dtw, Distance.dtw_sq); ("dfd", `Dfd, Distance.dfd_sq) ]

let test_plan_rejects_bad_bands () =
  (match Dp.plan Dp.dtw (Dp.Band 1) Dp.Row_major ~m:5 ~n:3 with
   | _ -> Alcotest.fail "band narrower than |m - n| planned"
   | exception Dp.Band_too_narrow -> ());
  match Dp.plan Dp.dfd (Dp.Band (-1)) Dp.Anti_diagonal ~m:3 ~n:3 with
  | _ -> Alcotest.fail "negative band planned"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "engine"
    [
      ("differential", cases);
      ("axes", axis_cases);
      ( "plan",
        [ Alcotest.test_case "bad bands rejected" `Quick test_plan_rejects_bad_bands ] );
    ]
