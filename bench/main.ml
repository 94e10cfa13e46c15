(* Benchmark harness regenerating every figure of the paper's evaluation
   (Section 7) plus its two in-prose comparisons, against this OCaml
   implementation.

   Usage:
     dune exec bench/main.exe                 -- everything, paper scale
     dune exec bench/main.exe -- --quick      -- reduced sweeps (CI)
     dune exec bench/main.exe -- fig5 fig9    -- selected experiments

   Experiments (ids match DESIGN.md):
     fig5   DTW time & data transferred vs sequence size (10..100)
     fig6   DTW client vs server time vs sequence size
     fig7   DTW vs DFD total time vs sequence size
     fig8   DFD time by phase vs sequence size
     fig9   DTW phase 1 vs phase 2 time vs dimensionality (10..100)
     fig10  client/server time & communication vs dimensionality
     fig11  phase 2 time & communication vs random-set size k (10..50)
     atallah  the Section 7 ">= 3 orders of magnitude vs [2]" comparison
     ablation implementation design-choice ablations (CRT, offline pool, keys)
     extensions secure ERP / banded DTW / Euclidean / subsequence matching
     network  trace-replay latency projections (sequential vs wavefront vs banded)
     entropy  the Section 5.4 entropy-preservation table
     smoke    sub-second correctness + determinism sweep (scripts/ci.sh)

   Per-operation costs (modexp, Paillier, channel rounds, sessions,
   catalog queries) are measured by the ladder, not here: see
   ladder/README.md and BENCHMARK.json.

   --log-level {quiet,info,debug}, --log-json and --trace-out FILE wire
   the Ppst_telemetry sinks exactly as on ppst_server/ppst_client.

   --jobs N sizes the Domain worker pool every secure run uses (default 1
   = sequential); [smoke] sweeps pool sizes itself and ignores it.

   Absolute times differ from the paper's 2014 Java testbed; the shapes
   (quadratic in n, linear in d and k, DFD ~ 2x DTW, phase 2 dominant,
   server > client at d = 1) are the reproduction targets.  Every secure
   run is cross-checked against the plaintext distance. *)

open Ppst.Import
module Generate = Ppst_timeseries.Generate
module Atallah = Ppst_baseline.Atallah
module Garbled = Ppst_baseline.Garbled

let max_value = 100
let jobs = ref 1

(* When --out DIR is given, every experiment's lines are also written to
   DIR/<experiment>.txt so plots and EXPERIMENTS.md can be regenerated
   from files rather than scraped from the console. *)
let tee_channel : out_channel option ref = ref None

let line fmt =
  Printf.ksprintf
    (fun s ->
      print_string s;
      print_newline ();
      flush stdout;
      match !tee_channel with
      | Some oc ->
        output_string oc s;
        output_char oc '\n'
      | None -> ())
    fmt

(* The driver the hand-assembled sessions below run on their client. *)
let wavefront_dtw = Ppst.Protocol.runner_of_spec (Ppst.Protocol.spec ~strategy:`Wavefront `Dtw)

let header title =
  line "";
  line "== %s" title;
  line "%s" (String.make (String.length title + 3) '-')

let check_against_plaintext kind x y (r : Ppst.Protocol.result) =
  let expected =
    match kind with `Dtw -> Distance.dtw_sq x y | `Dfd -> Distance.dfd_sq x y
  in
  let got = Ppst.Protocol.distance_int r in
  if got <> expected then
    failwith
      (Printf.sprintf "secure %s = %d but plaintext = %d: correctness bug!"
         (match kind with `Dtw -> "DTW" | `Dfd -> "DFD")
         got expected)

let run_secure kind ?(params = Ppst.Params.default) ~seed x y =
  let jobs = !jobs in
  let runner =
    match kind with
    | `Dtw -> fun () -> Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~params ~seed ~max_value ~jobs ~x ~y ()
    | `Dfd -> fun () -> Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dfd) ~params ~seed ~max_value ~jobs ~x ~y ()
  in
  let r = runner () in
  check_against_plaintext kind x y r;
  r

let kib stats = float_of_int (Stats.total_bytes stats) /. 1024.0

(* ---- shared sweeps (fig 5-8 reuse one length sweep) --------------------- *)

type length_point = {
  n : int;
  dtw : Ppst.Protocol.result;
  dfd : Ppst.Protocol.result;
}

let length_sweep ~sizes =
  List.map
    (fun n ->
      let x = Generate.ecg_int ~seed:(1000 + n) ~length:n ~max_value in
      let y = Generate.ecg_int ~seed:(2000 + n) ~length:n ~max_value in
      let dtw = run_secure `Dtw ~seed:(Printf.sprintf "fig5-%d" n) x y in
      let dfd = run_secure `Dfd ~seed:(Printf.sprintf "fig7-%d" n) x y in
      { n; dtw; dfd })
    sizes

let p1 c = Ppst.Cost.client_seconds c Ppst.Cost.Phase1 +. Ppst.Cost.server_seconds c Ppst.Cost.Phase1
let p2 c = Ppst.Cost.client_seconds c Ppst.Cost.Phase2 +. Ppst.Cost.server_seconds c Ppst.Cost.Phase2
let p3 c = Ppst.Cost.client_seconds c Ppst.Cost.Phase3 +. Ppst.Cost.server_seconds c Ppst.Cost.Phase3

let fig5 points =
  header "Figure 5: secure DTW vs sequence size (ECG-like, d=1, k=10)";
  line "%6s %12s %12s %12s %12s %14s %10s" "n" "phase1 (s)" "phase2 (s)"
    "offline (s)" "total (s)" "transfer(KiB)" "values";
  List.iter
    (fun { n; dtw; _ } ->
      let c = dtw.Ppst.Protocol.cost in
      line "%6d %12.4f %12.4f %12.4f %12.4f %14.1f %10d" n (p1 c) (p2 c)
        (Ppst.Cost.client_offline_seconds c)
        (Ppst.Cost.total_seconds c)
        (kib dtw.Ppst.Protocol.stats)
        (Stats.total_values dtw.Ppst.Protocol.stats))
    points;
  line "(expected shape: quadratic in n; phase 2 >> phase 1 at d = 1)"

let fig6 points =
  header "Figure 6: secure DTW per-party computation time vs sequence size";
  line "%6s %16s %16s %16s" "n" "client online(s)" "server (s)" "client offl.(s)";
  List.iter
    (fun { n; dtw; _ } ->
      let c = dtw.Ppst.Protocol.cost in
      line "%6d %16.4f %16.4f %16.4f" n
        (Ppst.Cost.client_total_seconds c)
        (Ppst.Cost.server_total_seconds c)
        (Ppst.Cost.client_offline_seconds c))
    points;
  line "(expected shape: both quadratic; server above client at d = 1, since";
  line " the server performs the k+2 decryptions per cell online while the";
  line " client's encryption randomness is precomputed offline)"

let fig7 points =
  header "Figure 7: secure DTW vs secure DFD total time vs sequence size";
  line "%6s %12s %12s %8s" "n" "DTW (s)" "DFD (s)" "ratio";
  List.iter
    (fun { n; dtw; dfd } ->
      let t = Ppst.Cost.total_seconds dtw.Ppst.Protocol.cost in
      let f = Ppst.Cost.total_seconds dfd.Ppst.Protocol.cost in
      line "%6d %12.4f %12.4f %8.2f" n t f (f /. t))
    points;
  line "(expected shape: DFD ~ 2x DTW — it adds a phase-3 round per cell)"

let fig8 points =
  header "Figure 8: secure DFD time by phase vs sequence size";
  line "%6s %12s %12s %12s" "n" "phase1 (s)" "phase2 (s)" "phase3 (s)";
  List.iter
    (fun { n; dfd; _ } ->
      let c = dfd.Ppst.Protocol.cost in
      line "%6d %12.4f %12.4f %12.4f" n (p1 c) (p2 c) (p3 c))
    points;
  line "(expected shape: phase 3 ~ phase 2, both >> phase 1)"

(* ---- fig 9 / 10: dimensionality sweep ----------------------------------- *)

type dim_point = { d : int; result : Ppst.Protocol.result }

let dim_sweep ~length ~dims =
  List.map
    (fun d ->
      let x = Generate.random_vectors ~seed:(3000 + d) ~length ~dim:d ~max_value in
      let y = Generate.random_vectors ~seed:(4000 + d) ~length ~dim:d ~max_value in
      let result = run_secure `Dtw ~seed:(Printf.sprintf "fig9-%d" d) x y in
      { d; result })
    dims

let fig9 points =
  header "Figure 9: secure DTW phase times vs element dimensionality (n=m fixed)";
  line "%6s %12s %12s %12s" "d" "phase1 (s)" "phase2 (s)" "total (s)";
  List.iter
    (fun { d; result } ->
      let c = result.Ppst.Protocol.cost in
      line "%6d %12.4f %12.4f %12.4f" d (p1 c) (p2 c) (Ppst.Cost.total_seconds c))
    points;
  line "(expected shape: phase 1 linear in d; phase 2 flat; phase 2 dominates";
  line " at low d, phase 1 catches up as d grows)"

let fig10 points =
  header "Figure 10: per-party time & communication vs dimensionality";
  line "%6s %16s %14s %14s" "d" "client online(s)" "server (s)" "transfer(KiB)";
  List.iter
    (fun { d; result } ->
      let c = result.Ppst.Protocol.cost in
      line "%6d %16.4f %14.4f %14.1f" d
        (Ppst.Cost.client_total_seconds c)
        (Ppst.Cost.server_total_seconds c)
        (kib result.Ppst.Protocol.stats))
    points;
  line "(expected shape: client time grows faster with d (phase-1 scalar";
  line " multiplications are client work); communication nearly flat, since";
  line " phase-2 traffic is independent of d)"

(* ---- fig 11: random set size sweep --------------------------------------- *)

let fig11 ~length ~ks =
  header "Figure 11: phase 2 cost vs random-set size k (ECG-like, n=m, d=1)";
  line "%6s %12s %14s %10s" "k" "phase2 (s)" "transfer(KiB)" "values";
  List.iter
    (fun k ->
      let params = Ppst.Params.make ~k () in
      let x = Generate.ecg_int ~seed:(5000 + k) ~length ~max_value in
      let y = Generate.ecg_int ~seed:(6000 + k) ~length ~max_value in
      let r = run_secure `Dtw ~params ~seed:(Printf.sprintf "fig11-%d" k) x y in
      let c = r.Ppst.Protocol.cost in
      line "%6d %12.4f %14.1f %10d" k (p2 c) (kib r.Ppst.Protocol.stats)
        (Stats.total_values r.Ppst.Protocol.stats))
    ks;
  line "(expected shape: time and communication linear in k)"

(* ---- the Atallah/garbled comparison --------------------------------------- *)

let atallah ~measured_n ~measured_seconds =
  header "Section 7 comparison: this protocol vs Atallah et al. [2] (estimates)";
  let m = measured_n and n = measured_n and d = 1 in
  let fast = Atallah.estimated_seconds ~m ~n ~d () in
  let slow =
    Atallah.estimated_seconds ~per_call:Atallah.fairplay_slow_seconds ~m ~n ~d ()
  in
  let garbled = Garbled.estimated_seconds ~m ~n ~d ~bits:32 () in
  line "sequence size %d x %d, d = 1:" m n;
  line "  %-46s %14.1f s" "this implementation (measured, secure DTW)" measured_seconds;
  line "  %-46s %14.1f s"
    (Printf.sprintf "Atallah et al. (%d Yao calls x 1.25 s)" (Atallah.yao_invocations ~m ~n ~d))
    fast;
  line "  %-46s %14.1f s" "Atallah et al. (slow network, 4 s per call)" slow;
  line "  %-46s %14.1f s" "garbled-circuit DTW (optimistic model)" garbled;
  line "  speedup vs Atallah (fast): %.0fx"
    (Atallah.speedup_vs ~measured_seconds ~m ~n ~d);
  line "(paper: 'at least 37000 seconds' vs 'tens of seconds' => >= 3 orders";
  line " of magnitude; the claim must survive here too)"

(* ---- entropy table ---------------------------------------------------------- *)

let entropy_table () =
  header "Section 5.4: information-entropy preservation of the masked sums";
  line "%12s %14s %16s %14s %12s" "Gamma" "uniform H" "masked-sum H" "min-entropy"
    "preserved";
  List.iter
    (fun bits ->
      let g = 1 lsl bits in
      line "%12s %14.3f %16.3f %14.3f %11.1f%%"
        (Printf.sprintf "2^%d" bits)
        (Ppst.Entropy.uniform_entropy g)
        (Ppst.Entropy.triangular_sum_entropy g)
        (Ppst.Entropy.min_entropy g)
        (100.0 *. Ppst.Entropy.preserved_fraction g))
    [ 4; 8; 12; 16; 20 ];
  line "(paper Eq. 9: the masked sum preserves more than half of the uniform";
  line " entropy; exactly half by min-entropy)"

(* ---- protocol extensions beyond the paper's figures -------------------------- *)

let extensions ~length =
  header "Extensions: the Section 8 claim made concrete (same masking machinery)";
  let x = Generate.ecg_int ~seed:8001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:8002 ~length ~max_value in
  let report label seconds values (ok : bool) =
    line "  %-46s %8.3f s %10d values  %s" label seconds values
      (if ok then "[= plaintext]" else "[MISMATCH!]")
  in
  (* full DTW as the reference point *)
  let t0 = Unix.gettimeofday () in
  let full = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"ext-dtw" ~max_value ~x ~y () in
  report "secure DTW (reference)"
    (Unix.gettimeofday () -. t0)
    (Stats.total_values full.Ppst.Protocol.stats)
    (Ppst.Protocol.distance_int full = Distance.dtw_sq x y);
  (* banded DTW at several widths *)
  List.iter
    (fun band ->
      let t0 = Unix.gettimeofday () in
      let r = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band `Dtw) ~seed:"ext-band" ~max_value ~x ~y () in
      report
        (Printf.sprintf "banded DTW (Sakoe-Chiba r=%d)" band)
        (Unix.gettimeofday () -. t0)
        (Stats.total_values r.Ppst.Protocol.stats)
        (Some (Ppst.Protocol.distance_int r) = Distance.dtw_sq_banded ~band x y))
    [ length / 10; length / 4 ];
  (* wavefront batching: same content, two orders of magnitude fewer rounds *)
  let t0 = Unix.gettimeofday () in
  let wf = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront `Dtw) ~seed:"ext-wf" ~max_value ~x ~y () in
  line "  %-46s %8.3f s %10d values  [rounds: %d vs %d]"
    "wavefront DTW (anti-diagonal batching)"
    (Unix.gettimeofday () -. t0)
    (Stats.total_values wf.Ppst.Protocol.stats)
    (Stats.rounds wf.Ppst.Protocol.stats)
    (Stats.rounds full.Ppst.Protocol.stats);
  assert (Ppst.Protocol.distance_int wf = Distance.dtw_sq x y);
  (* ERP with the origin gap *)
  let gap = [| 0 |] in
  let t0 = Unix.gettimeofday () in
  let erp = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~gap `Erp) ~seed:"ext-erp" ~max_value ~x ~y () in
  report "secure ERP (gap = origin)"
    (Unix.gettimeofday () -. t0)
    (Stats.total_values erp.Ppst.Protocol.stats)
    (Ppst.Protocol.distance_int erp = Distance.erp_sq ~gap x y);
  (* lockstep Euclidean *)
  let t0 = Unix.gettimeofday () in
  let euc = Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Euclidean) ~seed:"ext-euc" ~max_value ~x ~y () in
  report "secure Euclidean (lockstep)"
    (Unix.gettimeofday () -. t0)
    (Stats.total_values euc.Ppst.Protocol.stats)
    (Ppst.Protocol.distance_int euc = Distance.euclidean_sq x y);
  (* subsequence matching *)
  let pattern = Series.sub y ~pos:(length / 3) ~len:(length / 4) in
  let t0 = Unix.gettimeofday () in
  let sub = Ppst.Protocol.subsequence ~seed:"ext-sub" ~max_value ~x ~y:pattern () in
  let ok =
    Array.to_list sub.Ppst.Protocol.window_distances
    |> List.mapi (fun o d ->
           Ppst.Import.Bigint.to_int_exn d
           = Distance.euclidean_sq
               (Series.sub x ~pos:o ~len:(Series.length pattern))
               pattern)
    |> List.for_all Fun.id
  in
  report
    (Printf.sprintf "subsequence matching (%d windows)"
       (Array.length sub.Ppst.Protocol.window_distances))
    (Unix.gettimeofday () -. t0)
    (Stats.total_values sub.Ppst.Protocol.windows_stats)
    ok;
  line "(banded DTW cuts both time and traffic to O((m+n)·band); ERP costs";
  line " slightly more than DTW (m·n min-rounds instead of (m-1)(n-1));";
  line " Euclidean/subsequence need no masking rounds at all)"

(* ---- network projections (wavefront's raison d'etre) -------------------------- *)

let network ~length =
  header "Network projections: measured traffic projected on modeled links";
  let x = Generate.ecg_int ~seed:9001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:9002 ~length ~max_value in
  let band = length / 10 in
  let full_expected = Distance.dtw_sq x y in
  let banded_expected =
    match Distance.dtw_sq_banded ~band x y with Some v -> v | None -> assert false
  in
  let variants =
    [
      ("sequential DTW", full_expected,
       fun () ->
         Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~seed:"net-seq" ~max_value ~x ~y ());
      ("wavefront DTW", full_expected,
       fun () ->
         Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront `Dtw) ~seed:"net-wf" ~max_value ~x ~y ());
      (Printf.sprintf "banded DTW (r=%d)" band, banded_expected,
       fun () ->
         Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~band `Dtw) ~seed:"net-band" ~max_value ~x
           ~y ());
    ]
  in
  let links =
    [
      ("datacenter (0.05ms, 10Gb)", Ppst.Import.Netsim.datacenter);
      ("LAN (0.2ms, 1Gb)", Ppst.Import.Netsim.lan);
      ("WAN (30ms, 100Mb)", Ppst.Import.Netsim.wan);
    ]
  in
  line "n = m = %d, d = 1, k = 10; predicted total seconds per link:" length;
  line "%-22s %8s %8s %14s %12s %12s" "variant" "rounds" "KiB" "datacenter" "LAN"
    "WAN";
  List.iter
    (fun (name, expected, run_variant) ->
      let r = run_variant () in
      let stats = r.Ppst.Protocol.stats in
      if Ppst.Protocol.distance_int r <> expected then
        failwith (Printf.sprintf "%s disagrees with its plaintext reference" name);
      let compute = Ppst.Cost.total_seconds r.Ppst.Protocol.cost in
      let predictions =
        List.map
          (fun (_, link) ->
            (Ppst.Import.Netsim.estimate ~link ~compute_seconds:compute stats)
              .Ppst.Import.Netsim.total_seconds)
          links
      in
      match predictions with
      | [ dc; lan; wan ] ->
        line "%-22s %8d %8.0f %14.3f %12.3f %12.3f" name
          (Ppst.Import.Stats.rounds stats)
          (float_of_int (Ppst.Import.Stats.total_bytes stats) /. 1024.0)
          dc lan wan
      | _ -> assert false)
    variants;
  line "(the wavefront variant's advantage is pure round-count: identical bytes,";
  line " two orders of magnitude fewer RTTs — decisive on the WAN row)"

(* ---- ablations of the implementation's design choices ----------------------- *)

let ablation ~length =
  header "Ablations: implementation design choices (secure DTW, fixed size)";
  let x = Generate.ecg_int ~seed:7001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:7002 ~length ~max_value in
  let run ?decryption ?offline ?(params = Ppst.Params.default) label =
    let t0 = Unix.gettimeofday () in
    let r =
      Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~params ?decryption ?offline ~seed:("abl-" ^ label)
        ~max_value ~x ~y ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    check_against_plaintext `Dtw x y r;
    let c = r.Ppst.Protocol.cost in
    line "  %-44s wall %7.3f s | client on %6.3f off %6.3f | server %6.3f" label
      wall
      (Ppst.Cost.client_total_seconds c)
      (Ppst.Cost.client_offline_seconds c)
      (Ppst.Cost.server_total_seconds c)
  in
  line "n = m = %d, d = 1, k = 10:" length;
  run "baseline (standard decryption, offline pool)";
  run ~decryption:`Crt "CRT decryption (server ~halves its exponent sizes)";
  run ~offline:false "no offline pool (client encrypts online)";
  run
    ~params:(Ppst.Params.make ~key_bits:128 ())
    "128-bit Paillier modulus";
  run
    ~params:(Ppst.Params.make ~key_bits:256 ())
    "256-bit Paillier modulus";
  run ~params:(Ppst.Params.make ~gamma_slack:1 ()) "gamma slack 1 (tighter offsets)";
  line "(shape notes: CRT shifts server time down; disabling the pool moves";
  line " the offline column into client-online; cost grows ~quadratically with";
  line " the modulus size, trading speed for security margin)"

(* ---- smoke: sub-second correctness + determinism sweep (CI) ------------------ *)

(* Runs must be seeded identically so the cross-pool-size comparison also
   doubles as a determinism check: same distance, same bytes on the wire. *)
let same_transcript (a : Ppst.Protocol.result) (b : Ppst.Protocol.result) =
  Ppst.Protocol.distance_int a = Ppst.Protocol.distance_int b
  && Stats.total_bytes a.Ppst.Protocol.stats = Stats.total_bytes b.Ppst.Protocol.stats
  && Stats.total_values a.Ppst.Protocol.stats = Stats.total_values b.Ppst.Protocol.stats
  && Stats.rounds a.Ppst.Protocol.stats = Stats.rounds b.Ppst.Protocol.stats

(* One secure wavefront DTW session over TCP. *)
let tcp_session ~params ~x ~port ~seed =
  let channel = Ppst_transport.Channel.connect ~host:"127.0.0.1" ~port () in
  let client =
    Ppst.Client.connect ~params ~rng:(Secure_rng.of_seed_string seed) ~series:x
      ~max_value ~distance:`Dtw channel
  in
  let d = wavefront_dtw client in
  Ppst.Client.finish client;
  d

(* [sessions] concurrent TCP sessions against one Server_loop with a slot
   for each; every client runs in its own Domain, so its crypto overlaps
   the server's session threads.  Every revealed distance is checked
   against the plaintext; returns the wall time. *)
let concurrent_sessions ~params ~x ~y ~sessions =
  let _pk, sk =
    Ppst_paillier.Paillier.keygen ~bits:params.Ppst.Params.key_bits
      (Secure_rng.of_seed_string "smoke/keygen")
  in
  let handler ~id ~peer:_ =
    let server =
      Ppst.Server.create_with_key ~sk
        ~rng:(Secure_rng.of_seed_string (Printf.sprintf "smoke/session-%d" id))
        ~series:y ~max_value ()
    in
    Ppst_transport.Server_loop.respond_only (Ppst.Server.handle server)
  in
  let config =
    { Ppst_transport.Server_loop.default_config with max_sessions = sessions }
  in
  let loop = Ppst_transport.Server_loop.create ~config ~port:0 ~handler () in
  let runner = Thread.create (fun () -> Ppst_transport.Server_loop.run loop) () in
  let port = Ppst_transport.Server_loop.port loop in
  let t0 = Unix.gettimeofday () in
  let clients =
    List.init sessions (fun i ->
        Domain.spawn (fun () ->
            tcp_session ~params ~x ~port ~seed:(Printf.sprintf "smoke/client-%d" i)))
  in
  let distances = List.map Domain.join clients in
  let wall = Unix.gettimeofday () -. t0 in
  Ppst_transport.Server_loop.shutdown loop;
  Thread.join runner;
  List.iter
    (fun d ->
      if Bigint.to_int_exn d <> Distance.dtw_sq x y then
        failwith "smoke: concurrent session diverged from plaintext")
    distances;
  wall

let smoke () =
  header "Smoke: sub-second correctness + determinism sweep (CI)";
  let length = 8 in
  let x = Generate.ecg_int ~seed:12001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:12002 ~length ~max_value in
  let run j =
    let r =
      Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront `Dtw) ~seed:"smoke" ~max_value ~decryption:`Crt
        ~jobs:j ~x ~y ()
    in
    check_against_plaintext `Dtw x y r;
    r
  in
  let r1 = run 1 and r4 = run 4 in
  if not (same_transcript r1 r4) then
    failwith "smoke: seeded transcript diverges between jobs=1 and jobs=4";
  line "  wavefront DTW %dx%d: distance %d, %d bytes, %d rounds" length length
    (Ppst.Protocol.distance_int r1)
    (Stats.total_bytes r1.Ppst.Protocol.stats)
    (Stats.rounds r1.Ppst.Protocol.stats);
  line "  identical at jobs=1 and jobs=4; matches the plaintext distance.";
  (* hot-path smoke (a): the offline noise pool must be invisible on the
     wire — same seed with the pool on and off, hash the raw frames *)
  let transcript ~offline =
    let rng = Secure_rng.of_seed_string "smoke-hotpath/client" in
    let server_rng = Secure_rng.of_seed_string "smoke-hotpath/server" in
    let server = Ppst.Server.create ~rng:server_rng ~series:y ~max_value () in
    let buf = Buffer.create 4096 in
    let handler req =
      Buffer.add_string buf (Message.encode (Message.Request req));
      let reply = Ppst.Server.handle server req in
      Buffer.add_string buf (Message.encode (Message.Reply reply));
      reply
    in
    let client =
      Ppst.Client.connect ~offline ~rng ~series:x ~max_value ~distance:`Dtw
        (Channel.local handler)
    in
    let d = wavefront_dtw client in
    Ppst.Client.finish client;
    (Bigint.to_int_exn d, Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  let d_pooled, h_pooled = transcript ~offline:true in
  let _d_unpooled, h_unpooled = transcript ~offline:false in
  if d_pooled <> Ppst.Protocol.distance_int r1 then
    failwith "smoke: instrumented run diverges from the plaintext distance";
  if h_pooled <> h_unpooled then
    failwith "smoke: pooled vs unpooled transcript hashes differ";
  line "  pooled = unpooled transcript hash %s." (String.sub h_pooled 0 12);
  (* hot-path smoke (b): the packed profile reveals the same distance and
     its provisioned offline pool never misses *)
  let packed =
    Ppst.Protocol.run
      ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront ~packing:true `Dtw)
      ~params:(Ppst.Params.make ~key_bits:256 ())
      ~seed:"smoke" ~max_value ~x ~y ()
  in
  check_against_plaintext `Dtw x y packed;
  if Ppst.Protocol.distance_int packed <> Ppst.Protocol.distance_int r1 then
    failwith "smoke: packed distance diverges from the baseline path";
  if Ppst.Cost.pool_misses packed.Ppst.Protocol.cost <> 0 then
    failwith "smoke: packed offline run paid online noise exponentiations";
  line "  packed profile: same distance, zero pool misses offline.";
  (* concurrency smoke: two parallel TCP sessions against one Server_loop
     (seeded key, tiny series), each distance checked against plaintext *)
  let cx = Generate.ecg_int ~seed:12003 ~length:6 ~max_value in
  let cy = Generate.ecg_int ~seed:12004 ~length:6 ~max_value in
  let wall =
    concurrent_sessions ~params:(Ppst.Params.make ()) ~x:cx ~y:cy ~sessions:2
  in
  line "  2 concurrent TCP sessions served in %.3f s; distances match the"
    wall;
  line "  plaintext reference.";
  line "  ok."

(* ---- driver -------------------------------------------------------------------- *)

let experiments =
  [ "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "atallah"; "ablation";
    "extensions"; "network"; "entropy"; "smoke"; "all" ]

let with_tee out_dir name f =
  match out_dir with
  | None -> f ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out (Filename.concat dir (name ^ ".txt")) in
    tee_channel := Some oc;
    Fun.protect
      ~finally:(fun () ->
        tee_channel := None;
        close_out_noerr oc)
      f

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let out_dir =
    let rec find = function
      | "--out" :: dir :: _ -> Some dir
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  (let rec find = function
     | "--jobs" :: n :: _ -> jobs := int_of_string n
     | _ :: rest -> find rest
     | [] -> ()
   in
   find args);
  if !jobs < 1 then failwith "--jobs must be >= 1";
  (* telemetry sinks, same flags as ppst_server/ppst_client *)
  (let opt_value flag =
     let rec find = function
       | f :: v :: _ when f = flag -> Some v
       | _ :: rest -> find rest
       | [] -> None
     in
     find args
   in
   let level = Option.value ~default:"quiet" (opt_value "--log-level") in
   let json = List.mem "--log-json" args in
   let trace_out = opt_value "--trace-out" in
   Ppst_telemetry.Telemetry.configure ~level ~json ?trace_out ());
  let selected =
    let rec strip = function
      | "--out" :: _ :: rest -> strip rest
      | "--jobs" :: _ :: rest -> strip rest
      | "--log-level" :: _ :: rest -> strip rest
      | "--trace-out" :: _ :: rest -> strip rest
      | a :: rest ->
        if a = "--quick" || a = "--log-json" then strip rest
        else a :: strip rest
      | [] -> []
    in
    strip args
  in
  List.iter
    (fun name ->
      if not (List.mem name experiments) then
        failwith ("unknown experiment " ^ name ^ "; known: " ^ String.concat " " experiments))
    selected;
  let want name = selected = [] || List.mem name selected || List.mem "all" selected in
  let sizes = if quick then [ 10; 20; 40 ] else [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ] in
  let dims = if quick then [ 10; 30 ] else [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ] in
  let dim_len = if quick then 30 else 100 in
  let ks = if quick then [ 10; 30 ] else [ 10; 20; 30; 40; 50 ] in
  let k_len = if quick then 30 else 100 in
  line "privacy-preserving time-series similarity: paper-evaluation benchmarks";
  line "(key: Paillier %d bits, k = %d unless swept; every secure result is"
    Ppst.Params.default.Ppst.Params.key_bits Ppst.Params.default.Ppst.Params.k;
  line " cross-checked against the plaintext distance)";
  let need_lengths = want "fig5" || want "fig6" || want "fig7" || want "fig8" || want "atallah" in
  let length_points = if need_lengths then length_sweep ~sizes else [] in
  if want "fig5" then with_tee out_dir "fig5" (fun () -> fig5 length_points);
  if want "fig6" then with_tee out_dir "fig6" (fun () -> fig6 length_points);
  if want "fig7" then with_tee out_dir "fig7" (fun () -> fig7 length_points);
  if want "fig8" then with_tee out_dir "fig8" (fun () -> fig8 length_points);
  if want "fig9" || want "fig10" then begin
    let points = dim_sweep ~length:dim_len ~dims in
    if want "fig9" then with_tee out_dir "fig9" (fun () -> fig9 points);
    if want "fig10" then with_tee out_dir "fig10" (fun () -> fig10 points)
  end;
  if want "fig11" then with_tee out_dir "fig11" (fun () -> fig11 ~length:k_len ~ks);
  if want "atallah" then
    with_tee out_dir "atallah" (fun () ->
        (* use the largest length-sweep run as the measured data point *)
        let { n; dtw; _ } = List.nth length_points (List.length length_points - 1) in
        atallah ~measured_n:n
          ~measured_seconds:(Ppst.Cost.total_seconds dtw.Ppst.Protocol.cost));
  if want "ablation" then
    with_tee out_dir "ablation" (fun () -> ablation ~length:(if quick then 20 else 50));
  if want "extensions" then
    with_tee out_dir "extensions" (fun () ->
        extensions ~length:(if quick then 24 else 60));
  if want "network" then
    with_tee out_dir "network" (fun () -> network ~length:(if quick then 24 else 60));
  if want "entropy" then with_tee out_dir "entropy" (fun () -> entropy_table ());
  if want "smoke" then with_tee out_dir "smoke" (fun () -> smoke ());
  line "";
  line "done."
