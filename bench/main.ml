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
     parallel Domain worker-pool speedup sweep (writes BENCH_parallel.json)
     throughput concurrent TCP session rate, capacity 1 vs 4 (writes
              BENCH_concurrency.json)
     telemetry tracing overhead + JSONL trace fidelity (writes
              BENCH_telemetry.json)
     resilience CRC-32 + resume-checkpoint overhead and chaos recovery
              (writes BENCH_resilience.json)
     failover supervised multi-process workers: crash blackout, restart
              accounting, cross-worker spool resume (writes
              BENCH_failover.json)
     catalog  secure 1-vs-N catalog search: lower-bound pruning vs the
              naive exhaustive scan (writes BENCH_catalog.json)
     degraded partial catalog results under poisoned/slow candidates and
              whole-query budget adherence (writes BENCH_degraded.json)
     observability metrics-endpoint scrape overhead, windowed rollups and
              the cost-attribution ledger (writes BENCH_observability.json)
     smoke    sub-second correctness + determinism sweep (scripts/ci.sh)

   --log-level {quiet,info,debug}, --log-json and --trace-out FILE wire
   the Ppst_telemetry sinks exactly as on ppst_server/ppst_client.

   --jobs N sizes the Domain worker pool every secure run uses (default 1
   = sequential); the [parallel] and [smoke] experiments sweep pool sizes
   themselves and ignore it.

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

(* ---- parallel execution layer ------------------------------------------------ *)

(* Runs must be seeded identically so the cross-pool-size comparison also
   doubles as a determinism check: same distance, same bytes on the wire. *)
let same_transcript (a : Ppst.Protocol.result) (b : Ppst.Protocol.result) =
  Ppst.Protocol.distance_int a = Ppst.Protocol.distance_int b
  && Stats.total_bytes a.Ppst.Protocol.stats = Stats.total_bytes b.Ppst.Protocol.stats
  && Stats.total_values a.Ppst.Protocol.stats = Stats.total_values b.Ppst.Protocol.stats
  && Stats.rounds a.Ppst.Protocol.stats = Stats.rounds b.Ppst.Protocol.stats

let parallel_bench ~quick =
  header "Parallel: Domain worker-pool speedup (wavefront DTW)";
  let length = if quick then 8 else 16 in
  let key_bits = if quick then 256 else 1024 in
  let params = Ppst.Params.make ~key_bits () in
  let x = Generate.ecg_int ~seed:11001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:11002 ~length ~max_value in
  let timed j =
    let t0 = Unix.gettimeofday () in
    let r =
      Ppst.Protocol.run ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront `Dtw) ~params ~seed:"parallel-bench" ~max_value
        ~decryption:`Crt ~jobs:j ~x ~y ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    check_against_plaintext `Dtw x y r;
    (j, wall, r)
  in
  let cores = Domain.recommended_domain_count () in
  line "m = n = %d, d = 1, k = %d, %d-bit modulus; host reports %d core(s):"
    length params.Ppst.Params.k key_bits cores;
  let runs = List.map timed [ 1; 4 ] in
  let _, w1, r1 = List.hd runs in
  List.iter
    (fun (j, w, r) ->
      if not (same_transcript r1 r) then
        failwith "parallel: seeded transcript diverges across pool sizes";
      line "  jobs=%d  wall %8.3f s  speedup %5.2fx  (distance %d, %d bytes)" j w
        (w1 /. w)
        (Ppst.Protocol.distance_int r)
        (Stats.total_bytes r.Ppst.Protocol.stats))
    runs;
  line "  (seeded transcripts bit-identical across pool sizes: verified)";
  let _, w4, _ = List.nth runs 1 in
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    {|{
  "task": "secure DTW (wavefront, anti-diagonal batching)",
  "m": %d,
  "n": %d,
  "d": 1,
  "k": %d,
  "key_bits": %d,
  "cores": %d,
  "runs": [
    { "jobs": 1, "wall_seconds": %.3f },
    { "jobs": 4, "wall_seconds": %.3f }
  ],
  "speedup_jobs4_vs_jobs1": %.3f,
  "transcripts_identical": true,
  "cost": %s,
  "stats": %s,
  "note": "Measured on a host reporting %d core(s). The Domain pool cannot beat 1.0x without real cores to fan out to; rerun `dune exec bench/main.exe -- parallel` on a multicore host for the parallel speedup. Seeded transcripts are bit-identical at every pool size. cost/stats are from the jobs=1 run (identical across pool sizes by the transcript check)."
}
|}
    length length params.Ppst.Params.k key_bits cores w1 w4 (w1 /. w4)
    (Ppst.Cost.to_json r1.Ppst.Protocol.cost)
    (Stats.to_json r1.Ppst.Protocol.stats)
    cores;
  close_out oc;
  line "  wrote BENCH_parallel.json"

(* ---- concurrent-session throughput (Server_loop) ------------------------ *)

(* One secure DTW session against a running Server_loop, with a bounded
   retry loop on Busy (the capacity reply carries the backoff hint). *)
let throughput_session ~params ~x ~port ~seed =
  (* time-based retry budget: at capacity 1 a worker may legitimately
     wait through many whole sessions before winning a slot *)
  let give_up = Unix.gettimeofday () +. 600.0 in
  let rec attempt () =
    let channel = Ppst_transport.Channel.connect ~host:"127.0.0.1" ~port () in
    match
      let rng = Ppst_rng.Secure_rng.of_seed_string seed in
      let client =
        Ppst.Client.connect ~params ~rng ~series:x ~max_value ~distance:`Dtw
          channel
      in
      let d = wavefront_dtw client in
      Ppst.Client.finish client;
      d
    with
    | d -> d
    | exception Ppst_transport.Channel.Busy { retry_after_s } ->
      Ppst_transport.Channel.close channel;
      if Unix.gettimeofday () > give_up then
        failwith "throughput: server stayed busy forever";
      Unix.sleepf (Float.min retry_after_s 0.05);
      attempt ()
  in
  attempt ()

(* Connections a Server_loop in this process answered with Busy so far
   (capacity refusals plus rate-limit/watermark sheds), and the shed
   part alone: the experiments report deltas of these registry counters. *)
let registry_count name = Ppst_telemetry.Metrics.(counter_value (counter name))
let shed_total () = registry_count "server.shed"
let busy_total () = registry_count "server.sessions.busy_rejected" + shed_total ()

let throughput_run ~params ~x ~y ~concurrency ~total ~client_workers =
  let rng = Ppst_rng.Secure_rng.of_seed_string "throughput/keygen" in
  let _pk, sk =
    Ppst_paillier.Paillier.keygen ~bits:params.Ppst.Params.key_bits rng
  in
  let handler ~id ~peer:_ =
    let server =
      Ppst.Server.create_with_key ~sk
        ~rng:
          (Ppst_rng.Secure_rng.of_seed_string
             (Printf.sprintf "throughput/session-%d" id))
        ~series:y ~max_value ()
    in
    Ppst.Server.handle server
  in
  let config =
    {
      Ppst_transport.Server_loop.default_config with
      max_sessions = concurrency;
      retry_after_s = 0.05;
    }
  in
  let traffic = ref (Ppst_transport.Stats.create ()) and traffic_mu = Mutex.create () in
  let on_session_end (s : Ppst_transport.Server_loop.session) =
    Mutex.lock traffic_mu;
    traffic := Ppst_transport.Stats.merge !traffic s.session_stats;
    Mutex.unlock traffic_mu
  in
  let busy_before = busy_total () in
  let loop =
    Ppst_transport.Server_loop.create ~config ~on_session_end ~port:0
      ~handler:(fun ~id ~peer -> Ppst_transport.Server_loop.respond_only (handler ~id ~peer)) ()
  in
  let runner = Thread.create (fun () -> Ppst_transport.Server_loop.run loop) () in
  let port = Ppst_transport.Server_loop.port loop in
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  (* Clients live in their own Domains: their crypto runs truly parallel
     to the server's session threads (which share the main domain). *)
  let workers =
    List.init client_workers (fun w ->
        Domain.spawn (fun () ->
            let rec go acc =
              let i = Atomic.fetch_and_add next 1 in
              if i >= total then acc
              else
                let d =
                  throughput_session ~params ~x ~port
                    ~seed:(Printf.sprintf "throughput/client-%d-%d" w i)
                in
                go (d :: acc)
            in
            go []))
  in
  let distances = List.concat_map Domain.join workers in
  let wall = Unix.gettimeofday () -. t0 in
  Ppst_transport.Server_loop.shutdown loop;
  Thread.join runner;
  let expected = Distance.dtw_sq x y in
  List.iter
    (fun d ->
      if Ppst_bigint.Bigint.to_int_exn d <> expected then
        failwith "throughput: concurrent session diverged from plaintext")
    distances;
  if List.length distances <> total then
    failwith "throughput: lost sessions";
  (wall, busy_total () - busy_before, !traffic)

let throughput ~quick =
  header "Throughput: concurrent TCP sessions (Server_loop)";
  let length = if quick then 6 else 10 in
  let key_bits = if quick then 256 else 384 in
  let total = if quick then 8 else 12 in
  let client_workers = 4 in
  let params = Ppst.Params.make ~key_bits () in
  let x = Generate.ecg_int ~seed:12001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:12002 ~length ~max_value in
  line
    "m = n = %d, d = 1, %d-bit modulus; %d sessions, %d client worker \
     domains; every distance checked against plaintext:"
    length key_bits total client_workers;
  let measure concurrency =
    let wall, rejected, stats =
      throughput_run ~params ~x ~y ~concurrency ~total ~client_workers
    in
    let rate = float_of_int total /. wall in
    line
      "  concurrency=%d  wall %7.3f s  %6.2f sessions/s  (%d Busy rejection(s))"
      concurrency wall rate rejected;
    (concurrency, wall, rate, rejected, stats)
  in
  let c1, w1, r1, b1, s1 = measure 1 in
  let c4, w4, r4, b4, s4 = measure 4 in
  line "  (all %d distances bit-identical to the sequential plaintext check)"
    (2 * total);
  let oc = open_out "BENCH_concurrency.json" in
  Printf.fprintf oc
    {|{
  "task": "concurrent TCP sessions, secure DTW (wavefront), Server_loop",
  "m": %d,
  "n": %d,
  "d": 1,
  "key_bits": %d,
  "sessions_per_run": %d,
  "client_workers": %d,
  "runs": [
    { "concurrency": %d, "wall_seconds": %.3f, "sessions_per_second": %.3f, "busy_rejections": %d, "stats": %s },
    { "concurrency": %d, "wall_seconds": %.3f, "sessions_per_second": %.3f, "busy_rejections": %d, "stats": %s }
  ],
  "speedup_concurrency4_vs_1": %.3f,
  "distances_bit_identical_to_sequential": true,
  "note": "Single-process measurement: client sessions run in their own Domains, but all server sessions share the main domain's runtime lock (systhreads), so server-side compute serializes; the speedup reflects overlap of client compute and I/O, not a second server core. At concurrency 1 the extra client workers exercise the Busy/retry path. Each run's stats are the server-side transport totals over all its sessions."
}
|}
    length length key_bits total client_workers c1 w1 r1 b1 (Stats.to_json s1)
    c4 w4 r4 b4 (Stats.to_json s4)
    (w1 /. w4);
  close_out oc;
  line "  wrote BENCH_concurrency.json"

(* ---- resilience: CRC + checkpoint overhead, chaos recovery ------------------- *)

(* One secure DTW session over TCP.  [secure_frames = false] declines the
   capability bits in Hello, giving the exact PR 3 wire format; [true]
   negotiates CRC-32 trailers + resume checkpointing — the overhead being
   measured.  [?faults] installs a client-side chaos injector. *)
let resilience_session ~params ~x ~port ~seed ~secure_frames ?faults () =
  let channel =
    Ppst_transport.Channel.connect ~crc:secure_frames ~resume:secure_frames
      ?faults ~host:"127.0.0.1" ~port ()
  in
  let rng = Ppst_rng.Secure_rng.of_seed_string seed in
  let client =
    Ppst.Client.connect ~params ~rng ~series:x ~max_value ~distance:`Dtw channel
  in
  let d = wavefront_dtw client in
  Ppst.Client.finish client;
  d

let resilience ~quick =
  header "Resilience: frame-integrity + checkpoint overhead, chaos recovery";
  let length = 16 in
  let key_bits = if quick then 256 else 1024 in
  let runs = if quick then 2 else 2 in
  let params = Ppst.Params.make ~key_bits () in
  let x = Generate.ecg_int ~seed:13001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:13002 ~length ~max_value in
  let rng = Ppst_rng.Secure_rng.of_seed_string "resilience/keygen" in
  let _pk, sk = Ppst_paillier.Paillier.keygen ~bits:key_bits rng in
  let handler ~id ~peer:_ =
    let server =
      Ppst.Server.create_with_key ~sk
        ~rng:
          (Ppst_rng.Secure_rng.of_seed_string
             (Printf.sprintf "resilience/session-%d" id))
        ~series:y ~max_value ()
    in
    Ppst.Server.handle server
  in
  let loop =
    Ppst_transport.Server_loop.create ~port:0
      ~handler:(fun ~id ~peer -> Ppst_transport.Server_loop.respond_only (handler ~id ~peer)) ()
  in
  let runner = Thread.create (fun () -> Ppst_transport.Server_loop.run loop) () in
  let port = Ppst_transport.Server_loop.port loop in
  let expected = Distance.dtw_sq x y in
  Fun.protect
    ~finally:(fun () ->
      Ppst_transport.Server_loop.shutdown loop;
      Thread.join runner)
    (fun () ->
      line
        "m = n = %d, d = 1, %d-bit modulus, wavefront DTW over TCP; best of %d:"
        length key_bits runs;
      let timed ~secure_frames ~seed =
        let best = ref infinity in
        for r = 1 to runs do
          let t0 = Unix.gettimeofday () in
          let d =
            resilience_session ~params ~x ~port
              ~seed:(Printf.sprintf "%s-%d" seed r)
              ~secure_frames ()
          in
          if Ppst_bigint.Bigint.to_int_exn d <> expected then
            failwith "resilience: secure distance diverged from plaintext";
          best := Float.min !best (Unix.gettimeofday () -. t0)
        done;
        !best
      in
      let w_plain = timed ~secure_frames:false ~seed:"resilience/plain" in
      let w_secure = timed ~secure_frames:true ~seed:"resilience/secure" in
      let overhead = (w_secure /. w_plain) -. 1.0 in
      line "  plain frames (PR 3 wire format)   %7.3f s" w_plain;
      line "  CRC-32 + resume checkpointing     %7.3f s" w_secure;
      line "  overhead %+.2f%%  (target < 2%%; negative values are noise)"
        (overhead *. 100.0);
      (* chaos recovery: kill the connection every 64 frames and let the
         retry + resume machinery repair it — the distance must not move *)
      let resumed_before =
        Ppst_telemetry.Metrics.counter_value
          (Ppst_telemetry.Metrics.counter "transport.resume.ok")
      in
      let faults =
        Ppst_transport.Faults.create (Ppst_transport.Faults.Drop_every 64)
      in
      let t0 = Unix.gettimeofday () in
      let d_chaos =
        resilience_session ~params ~x ~port ~seed:"resilience/chaos"
          ~secure_frames:true ~faults ()
      in
      let w_chaos = Unix.gettimeofday () -. t0 in
      if Ppst_bigint.Bigint.to_int_exn d_chaos <> expected then
        failwith "resilience: chaos-run distance diverged from plaintext";
      let injected = Ppst_transport.Faults.injected faults in
      let resumes =
        Ppst_telemetry.Metrics.counter_value
          (Ppst_telemetry.Metrics.counter "transport.resume.ok")
        - resumed_before
      in
      line
        "  chaos drop-every-64: %d drop(s) injected, %d resume(s), %7.3f s, \
         distance bit-identical"
        injected resumes w_chaos;
      let oc = open_out "BENCH_resilience.json" in
      Printf.fprintf oc
        {|{
  "task": "CRC-32 frame integrity + resume checkpointing overhead, secure DTW (wavefront) over TCP",
  "m": %d,
  "n": %d,
  "d": 1,
  "key_bits": %d,
  "best_of": %d,
  "wall_seconds_plain_frames": %.3f,
  "wall_seconds_crc_resume": %.3f,
  "overhead_fraction": %.4f,
  "overhead_target_fraction": 0.02,
  "chaos": {
    "profile": "drop-every-64",
    "faults_injected": %d,
    "resumes": %d,
    "wall_seconds": %.3f,
    "distance_bit_identical": true
  },
  "note": "Plain frames decline the Hello capability bits, reproducing the pre-fault-tolerance wire format byte for byte; the secure run negotiates CRC-32 trailers on every frame plus server-side checkpointing of the last acknowledged round. Overhead is wall(secure)/wall(plain)-1, best-of-%d each, and is dominated by the 4-byte trailer + table-driven CRC over ~%d-byte ciphertext frames. The chaos run hard-drops the connection every 64 frames; each drop is repaired by reconnect + Resume replay and the revealed distance stays bit-identical to the plaintext reference."
}
|}
        length length key_bits runs w_plain w_secure overhead injected resumes
        w_chaos runs (key_bits / 4)
      ;
      close_out oc;
      line "  wrote BENCH_resilience.json")

(* ---- failover: supervised multi-process crash recovery ----------------------- *)

let rec failover_rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun e -> failover_rm_rf (Filename.concat path e))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Fork a whole supervised deployment ([Supervisor.run] parent + worker
   children) and hand the bench process back the listening port.  The
   supervisor's exit code carries its lifetime restart count.  A
   non-restarted worker carries the crash injector ([crash_at = 0]
   disables it); replacements run fault-free — the ppst_server wiring. *)
let failover_supervised ~sk ~y ~workers ~spool ~crash_at ~seed () =
  let listener, port = Ppst_transport.Supervisor.bind ~port:0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let stop = Atomic.make false in
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Atomic.set stop true));
    let worker_main ~slot ~restarted ~control =
      let faults =
        if restarted || crash_at = 0 then None
        else
          Some
            (Ppst_transport.Faults.create
               (Ppst_transport.Faults.Crash_at crash_at))
      in
      let config =
        {
          Ppst_transport.Server_loop.default_config with
          spool_dir = Some spool;
          faults;
          drain_timeout_s = 5.0;
        }
      in
      let handler ~id ~peer:_ =
        let server =
          Ppst.Server.create_with_key ~sk
            ~rng:
              (Ppst_rng.Secure_rng.of_seed_string
                 (Printf.sprintf "%s/session-%d" seed id))
            ~series:y ~max_value ()
        in
        {
          Ppst_transport.Server_loop.respond = Ppst.Server.handle server;
          snapshot = Some (fun () -> Ppst.Server.export_state server);
          restore = Some (fun blob -> Ppst.Server.restore_state server blob);
        }
      in
      let loop =
        Ppst_transport.Server_loop.create_worker ~config
          ~rng:
            (Ppst_rng.Secure_rng.of_seed_string
               (Printf.sprintf "%s/worker-%d" seed slot))
          ~boot_id:"bnch" ~slot ~workers ~handler ()
      in
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ ->
             Ppst_transport.Server_loop.shutdown loop));
      Ppst_transport.Server_loop.run_worker loop ~control
    in
    let restart_policy =
      { Ppst_transport.Retry.max_attempts = 8; base_delay_s = 0.002;
        max_delay_s = 0.02; multiplier = 2.0 }
    in
    let summary =
      Ppst_transport.Supervisor.run ~restart_policy ~drain_timeout_s:5.0 ~stop
        ~listener ~workers ~worker_main ()
    in
    Unix._exit (Stdlib.min 100 summary.Ppst_transport.Supervisor.restarts)
  | pid ->
    Unix.close listener;
    (pid, port)

let failover_stop_supervised pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED restarts -> restarts
  | _, _ -> failwith "failover: supervisor did not exit cleanly"

(* One secure DTW session against a supervised deployment.  A crash that
   lands before the resume token exists is unrecoverable by design; the
   outer loop restarts the session with the same seed (same transcript).
   Returns the distance and the client-side frame count, which sizes the
   crash schedule. *)
let failover_session ~params ~x ~port ~seed () =
  let policy =
    { Ppst_transport.Retry.max_attempts = 12; base_delay_s = 0.002;
      max_delay_s = 0.05; multiplier = 2.0 }
  in
  let rec attempt tries =
    match
      let channel =
        Ppst_transport.Channel.connect ~retry:policy ~host:"127.0.0.1" ~port ()
      in
      match
        let rng = Ppst_rng.Secure_rng.of_seed_string (seed ^ "/client") in
        let client =
          Ppst.Client.connect ~params ~rng ~series:x ~max_value ~distance:`Dtw
            channel
        in
        let d = wavefront_dtw client in
        Ppst.Client.finish client;
        (d, Stats.messages (Ppst_transport.Channel.stats channel))
      with
      | r -> r
      | exception e ->
        (try Ppst_transport.Channel.close channel with _ -> ());
        raise e
    with
    | r -> r
    | exception
        (( Ppst_transport.Channel.Connection_lost _
         | Ppst_transport.Channel.Frame_corrupt _
         | Ppst_transport.Channel.Busy _
         | Ppst_transport.Retry.Exhausted _
         | Unix.Unix_error
             ((Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE), _, _) ) as e)
      ->
      if tries = 0 then raise e
      else begin
        Unix.sleepf 0.02;
        attempt (tries - 1)
      end
  in
  attempt 30

let failover_bench ~quick =
  header "Failover: supervised multi-process crash recovery";
  let length = 16 in
  let key_bits = if quick then 256 else 512 in
  let workers = 2 in
  let params = Ppst.Params.make ~key_bits () in
  let x = Generate.ecg_int ~seed:17001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:17002 ~length ~max_value in
  let rng = Ppst_rng.Secure_rng.of_seed_string "failover/keygen" in
  let _pk, sk = Ppst_paillier.Paillier.keygen ~bits:key_bits rng in
  let expected = Distance.dtw_sq x y in
  let spool_root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppst-bench-failover-%d" (Unix.getpid ()))
  in
  let run ~tag ~crash_at =
    let spool = Filename.concat spool_root tag in
    failover_rm_rf spool;
    let pid, port =
      failover_supervised ~sk ~y ~workers ~spool ~crash_at
        ~seed:("failover/" ^ tag) ()
    in
    Fun.protect
      ~finally:(fun () -> failover_rm_rf spool)
      (fun () ->
        let resumes_before =
          Ppst_telemetry.Metrics.counter_value
            (Ppst_telemetry.Metrics.counter "transport.resume.ok")
        in
        let t0 = Unix.gettimeofday () in
        let d, frames =
          failover_session ~params ~x ~port ~seed:("failover/" ^ tag) ()
        in
        let wall = Unix.gettimeofday () -. t0 in
        let restarts = failover_stop_supervised pid in
        if Ppst_bigint.Bigint.to_int_exn d <> expected then
          failwith "failover: distance diverged from plaintext";
        let resumes =
          Ppst_telemetry.Metrics.counter_value
            (Ppst_telemetry.Metrics.counter "transport.resume.ok")
          - resumes_before
        in
        (wall, frames, restarts, resumes))
  in
  line
    "m = n = %d, d = 1, %d-bit modulus, wavefront DTW; %d supervised workers, \
     distance checked against plaintext:"
    length key_bits workers;
  let w_base, frames, r_base, _ = run ~tag:"baseline" ~crash_at:0 in
  line "  crash-free            %7.3f s  (%d frames, %d restart(s))" w_base
    frames r_base;
  if r_base <> 0 then failwith "failover: baseline run restarted a worker";
  let crash_at = frames / 2 in
  let w_fail, _, restarts, resumes = run ~tag:"crash" ~crash_at in
  let blackout = w_fail -. w_base in
  line
    "  worker SIGKILL @ %3d  %7.3f s  (%d restart(s), %d resume(s), +%.3f s \
     recovery)"
    crash_at w_fail restarts resumes blackout;
  if restarts < 1 then failwith "failover: crash run restarted no worker";
  if resumes < 1 then failwith "failover: crash run never resumed";
  let oc = open_out "BENCH_failover.json" in
  Printf.fprintf oc
    {|{
  "task": "supervised multi-process serving: worker crash mid-session, cross-worker resume via spool",
  "m": %d,
  "n": %d,
  "d": 1,
  "key_bits": %d,
  "workers": %d,
  "frames_per_session": %d,
  "crash_at_frame": %d,
  "wall_seconds_crash_free": %.3f,
  "wall_seconds_with_crash": %.3f,
  "failover_latency_seconds": %.3f,
  "worker_restarts": %d,
  "resumes": %d,
  "distance_bit_identical": true,
  "note": "Both runs serve one wavefront secure-DTW session through a forked parent dispatcher sharding connections across the worker pool by SCM_RIGHTS fd passing. The crash run arms a one-shot fault that SIGKILLs the serving worker at the session's midpoint frame; the client reconnects, the dispatcher routes the Resume by token hash, and whichever worker receives it rebuilds the session from the shared crash-safe spool (the dead worker's memory is gone). failover_latency_seconds is wall(crash) - wall(crash-free): reconnect backoff + supervisor respawn + spool rehydration. worker_restarts is the supervisor's lifetime restart count at exit; the kill itself accounts for one, and a resumed session landing on the second still-armed worker can add another (replacement workers always run fault-free, so the cascade is bounded)."
}
|}
    length length key_bits workers frames crash_at w_base w_fail blackout
    restarts resumes;
  close_out oc;
  line "  wrote BENCH_failover.json"

(* ---- overload: admission overhead + shed-vs-queue latency -------------------- *)

(* Admission control prices every frame and every extreme-selection
   request in plain integer comparisons; this experiment puts a number
   on that clean-path cost (target < 1%) and contrasts how a burst of
   clients drains with load shedding on vs plain capacity queueing. *)
let overload ~quick =
  header "Overload control: admission overhead, shed vs queue under a burst";
  let length = 12 in
  let key_bits = if quick then 256 else 512 in
  let runs = if quick then 4 else 6 in
  let params = Ppst.Params.make ~key_bits () in
  let x = Generate.ecg_int ~seed:14001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:14002 ~length ~max_value in
  let rng = Ppst_rng.Secure_rng.of_seed_string "overload/keygen" in
  let _pk, sk = Ppst_paillier.Paillier.keygen ~bits:key_bits rng in
  let expected = Distance.dtw_sq x y in
  let make_handler tag ~id ~peer:_ =
    let server =
      Ppst.Server.create_with_key ~sk
        ~rng:
          (Ppst_rng.Secure_rng.of_seed_string
             (Printf.sprintf "overload/%s-session-%d" tag id))
        ~series:y ~max_value ()
    in
    Ppst.Server.handle server
  in
  (* every limiter armed, none of them saturated by an honest session *)
  let guarded_admission =
    {
      Ppst_transport.Admission.max_cells = Some (8 * length * length);
      max_series_len = Some (8 * length);
      max_dim = Some 16;
      max_session_bytes = Some (256 * 1024 * 1024);
      max_session_frames = Some 1_000_000;
    }
  in
  let with_loop ~tag config f =
    let loop =
      Ppst_transport.Server_loop.create ~config ~port:0
        ~handler:(fun ~id ~peer ->
          Ppst_transport.Server_loop.respond_only (make_handler tag ~id ~peer))
        ()
    in
    let runner =
      Thread.create (fun () -> Ppst_transport.Server_loop.run loop) ()
    in
    Fun.protect
      ~finally:(fun () ->
        Ppst_transport.Server_loop.shutdown loop;
        Thread.join runner)
      (fun () -> f loop (Ppst_transport.Server_loop.port loop))
  in
  let session ~port ~seed =
    (* a Busy answer (capacity or shed) is retried honouring the hint,
       exactly as ppst_client's session loop does *)
    let policy =
      { Ppst_transport.Retry.default_policy with max_attempts = 100 }
    in
    let rng = Ppst_rng.Secure_rng.of_seed_string seed in
    let d =
      Ppst_transport.Retry.with_retry ~policy
        ~rng:(Ppst_rng.Secure_rng.of_seed_string (seed ^ "/backoff"))
        ~classify:(function
          | Ppst_transport.Channel.Busy { retry_after_s } ->
            `Retry_after retry_after_s
          | Ppst_transport.Channel.Connection_lost _ -> `Retry
          | _ -> `Fail)
        (fun () ->
          let channel =
            Ppst_transport.Channel.connect ~host:"127.0.0.1" ~port ()
          in
          try
            let client =
              Ppst.Client.connect ~params ~rng ~series:x ~max_value
                ~distance:`Dtw channel
            in
            let d = wavefront_dtw client in
            Ppst.Client.finish client;
            d
          with e ->
            (try Ppst_transport.Channel.close channel with _ -> ());
            raise e)
    in
    if Ppst_bigint.Bigint.to_int_exn d <> expected then
      failwith "overload: session diverged from plaintext";
    d
  in
  (* -- clean-path overhead: one session, admission off vs fully armed.
     Both servers are alive at once and the timed sessions alternate
     between them (after a warmup each), so machine noise — CPU
     frequency, page cache, allocator state — hits the two sides
     equally instead of masquerading as admission cost. -- *)
  let guarded_config =
    {
      Ppst_transport.Server_loop.default_config with
      admission = guarded_admission;
      ratelimit =
        Some { Ppst_transport.Ratelimit.rate_per_s = 100.0; burst = 100.0 };
      shed_watermark = Some 64;
    }
  in
  let w_open, w_guarded =
    with_loop ~tag:"open" Ppst_transport.Server_loop.default_config
      (fun _ open_port ->
        with_loop ~tag:"guarded" guarded_config (fun _ guarded_port ->
            ignore (session ~port:open_port ~seed:"overload/open-warmup");
            ignore (session ~port:guarded_port ~seed:"overload/guarded-warmup");
            let best_open = ref infinity and best_guarded = ref infinity in
            for r = 1 to runs do
              let t0 = Unix.gettimeofday () in
              ignore
                (session ~port:open_port
                   ~seed:(Printf.sprintf "overload/open-%d" r));
              best_open := Float.min !best_open (Unix.gettimeofday () -. t0);
              let t0 = Unix.gettimeofday () in
              ignore
                (session ~port:guarded_port
                   ~seed:(Printf.sprintf "overload/guarded-%d" r));
              best_guarded :=
                Float.min !best_guarded (Unix.gettimeofday () -. t0)
            done;
            (!best_open, !best_guarded)))
  in
  let overhead = ((w_guarded /. w_open) -. 1.0) *. 100.0 in
  line "m = n = %d, d = 1, %d-bit modulus, wavefront DTW, best-of-%d:" length
    key_bits runs;
  line "  no admission control              %7.3f s" w_open;
  line "  quotas + rate limit + watermark   %7.3f s" w_guarded;
  line "  clean-path overhead %+.2f%%  (target < 1%%; negative values are noise)"
    overhead;
  (* -- burst handling: shed watermark vs plain capacity queueing -- *)
  let burst = 8 in
  let drain config tag =
    let busy_before = busy_total () and shed_before = shed_total () in
    with_loop ~tag config (fun _ port ->
        let latencies = Array.make burst 0.0 in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init burst (fun i ->
              Thread.create
                (fun () ->
                  (* stagger arrivals across the drain so later clients
                     land while earlier sessions hold the server
                     mid-crypto — the regime shedding is for.  The step
                     scales with the measured single-session time so the
                     arrival window tracks the drain at any key size. *)
                  Thread.delay (0.5 *. w_open *. float_of_int i);
                  let s0 = Unix.gettimeofday () in
                  ignore
                    (session ~port
                       ~seed:(Printf.sprintf "overload/%s-burst-%d" tag i));
                  latencies.(i) <- Unix.gettimeofday () -. s0)
                ())
        in
        List.iter Thread.join threads;
        let wall = Unix.gettimeofday () -. t0 in
        let mean = Array.fold_left ( +. ) 0.0 latencies /. float_of_int burst in
        let worst = Array.fold_left Float.max 0.0 latencies in
        (wall, mean, worst, busy_total () - busy_before, shed_total () - shed_before))
  in
  (* Three admission regimes for the same staggered burst:
     - open: slots for everyone — all sessions thrash concurrently;
     - queue: two static session slots, the rest retry on capacity Busy;
     - shed: slots for everyone, but arrivals are refused while crypto
       is in flight — load-tracking admission with no fixed slot count. *)
  let open_cfg =
    {
      Ppst_transport.Server_loop.default_config with
      max_sessions = burst;
      retry_after_s = 0.05;
    }
  in
  let queue_cfg = { open_cfg with max_sessions = 2 } in
  let shed_cfg = { open_cfg with shed_watermark = Some 1 } in
  let o_wall, o_mean, o_worst, o_rej, _ = drain open_cfg "open-burst" in
  let q_wall, q_mean, q_worst, q_rej, _ = drain queue_cfg "queue" in
  let s_wall, s_mean, s_worst, s_rej, s_shed = drain shed_cfg "shed" in
  line "%d-client staggered burst (every distance checked):" burst;
  line
    "  admit everyone   wall %6.3f s  mean latency %6.3f s  worst %6.3f s  \
     (%d Busy)"
    o_wall o_mean o_worst o_rej;
  line
    "  capacity queue   wall %6.3f s  mean latency %6.3f s  worst %6.3f s  \
     (%d Busy)"
    q_wall q_mean q_worst q_rej;
  line
    "  shed watermark   wall %6.3f s  mean latency %6.3f s  worst %6.3f s  \
     (%d Busy, %d shed)"
    s_wall s_mean s_worst s_rej s_shed;
  let oc = open_out "BENCH_overload.json" in
  Printf.fprintf oc
    {|{
  "task": "admission-control overhead and shed-vs-queue burst handling, wavefront DTW over TCP",
  "m": %d,
  "n": %d,
  "d": 1,
  "key_bits": %d,
  "clean_path": {
    "wall_seconds_open": %.3f,
    "wall_seconds_guarded": %.3f,
    "admission_overhead_percent": %.3f,
    "target_percent": 1.0
  },
  "burst": {
    "clients": %d,
    "admit_everyone": { "session_slots": %d, "wall_seconds": %.3f, "mean_latency_seconds": %.3f, "worst_latency_seconds": %.3f, "busy_rejections": %d },
    "capacity_queue": { "session_slots": 2, "wall_seconds": %.3f, "mean_latency_seconds": %.3f, "worst_latency_seconds": %.3f, "busy_rejections": %d },
    "shed_watermark": { "session_slots": %d, "watermark": 1, "wall_seconds": %.3f, "mean_latency_seconds": %.3f, "worst_latency_seconds": %.3f, "busy_rejections": %d, "shed": %d }
  },
  "distances_bit_identical_to_plaintext": true,
  "note": "The guarded server arms per-session quotas (cells, series length, dimension, bytes, frames), a per-peer token bucket and the shed watermark, all sized so an honest session never touches them; overhead is wall(guarded)/wall(open)-1, best-of-%d each with both servers alive and the timed sessions interleaved, and amounts to integer compares per frame. In the burst runs every client retries on Busy honouring the retry-after hint, so every mode finishes all %d sessions. Admitting everyone lets all sessions thrash concurrently (worst mean latency); a static 2-slot queue bounds concurrency by connection count; the shed watermark bounds it by live in-flight crypto instead, approximating the queue's latency with no fixed slot count."
}
|}
    length length key_bits w_open w_guarded overhead burst burst o_wall o_mean
    o_worst o_rej q_wall q_mean q_worst q_rej burst s_wall s_mean s_worst
    s_rej s_shed runs burst;
  close_out oc;
  line "  wrote BENCH_overload.json"

(* ---- telemetry: overhead + trace fidelity ------------------------------------ *)

(* Re-applies whatever --log-level/--log-json/--trace-out the user gave,
   after telemetry_bench has temporarily rewired the sinks. *)
let telemetry_cli : (unit -> unit) ref =
  ref (fun () -> Ppst_telemetry.Telemetry.configure ())

(* The stored BENCH_telemetry.json baseline measured before the crypto
   hot-path overhaul (naive division-based modular arithmetic, no
   noise pools, no packing) — the reference the overhaul's speedup is
   reported against. *)
let prior_baseline_wall = 167.799

let telemetry_bench ~quick =
  header "Telemetry: tracing overhead and JSONL trace fidelity (wavefront DTW)";
  let module T = Ppst_telemetry.Telemetry in
  let module R = Ppst_telemetry.Trace_reader in
  let length = 16 in
  let key_bits = if quick then 256 else 1024 in
  let params = Ppst.Params.make ~key_bits () in
  let x = Generate.ecg_int ~seed:13001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:13002 ~length ~max_value in
  let run_spec ~packing ~offline () =
    let t0 = Unix.gettimeofday () in
    let r =
      Ppst.Protocol.run
        ~spec:(Ppst.Protocol.spec ~strategy:`Wavefront ~packing `Dtw)
        ~params ~seed:"telemetry-bench" ~max_value ~decryption:`Crt ~offline ~x
        ~y ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    check_against_plaintext `Dtw x y r;
    (wall, r)
  in
  (* the headline profile: plaintext packing + offline noise pool *)
  let run = run_spec ~packing:true ~offline:true in
  let best_of count f =
    let rec go count best last =
      if count = 0 then (best, Option.get last)
      else
        let w, r = f () in
        go (count - 1) (Float.min best w) (Some r)
    in
    go count infinity None
  in
  let runs = if quick then 1 else 2 in
  line
    "m = n = %d, d = 1, k = %d, %d-bit modulus, packed + pooled profile, best \
     of %d run(s):"
    length params.Ppst.Params.k key_bits runs;
  T.configure ();
  ignore (run ());
  (* warmup *)
  let w_off, r_off = best_of runs run in
  line "  telemetry off:          wall %8.3f s" w_off;
  if Ppst.Cost.pool_misses r_off.Ppst.Protocol.cost <> 0 then
    failwith "telemetry: packed offline run paid online noise exponentiations";
  let trace_file = Filename.temp_file "ppst_bench_trace" ".jsonl" in
  let run_traced () =
    (* reconfigure per run: each run gets a freshly truncated trace, so
       the surviving file always holds exactly one session *)
    T.configure ~trace_out:trace_file ();
    let res = run () in
    T.configure ();
    (* flushes and detaches the file sink *)
    res
  in
  let w_on, _ = best_of runs run_traced in
  let overhead = (w_on -. w_off) /. w_off in
  line "  telemetry on (JSONL):   wall %8.3f s  overhead %+.2f%%" w_on
    (100.0 *. overhead);
  (* one more traced run dedicated to fidelity: its own wall clock, Cost
     and Stats must agree with what its trace says *)
  let w_fid, r_fid = run_traced () in
  if not (same_transcript r_off r_fid) then
    failwith "telemetry: seeded transcript diverges with tracing on";
  line "  seeded transcripts bit-identical with tracing on vs off: verified";
  let entries = R.read_file trace_file in
  (match List.filter_map R.lint_entry entries with
   | [] -> ()
   | reason :: _ -> failwith ("telemetry: leakage lint failed: " ^ reason));
  let s = R.summarize entries in
  let stats_bytes = Stats.total_bytes r_fid.Ppst.Protocol.stats in
  if s.R.total_round_bytes <> stats_bytes then
    failwith
      (Printf.sprintf "telemetry: trace says %d round bytes, Stats says %d"
         s.R.total_round_bytes stats_bytes);
  if s.R.total_rounds <> Stats.rounds r_fid.Ppst.Protocol.stats then
    failwith "telemetry: trace round count disagrees with Stats";
  let session_s =
    List.fold_left
      (fun acc (row : R.span_row) ->
        if row.R.span_name = "protocol.session" then acc +. row.R.total_s
        else acc)
      0.0 s.R.spans
  in
  let session_gap = Float.abs (session_s -. w_fid) /. w_fid in
  if session_gap > 0.01 then
    failwith
      (Printf.sprintf
         "telemetry: session span %.3f s vs measured wall %.3f s (%.1f%% apart)"
         session_s w_fid (100.0 *. session_gap));
  line
    "  trace fidelity: %d records; round bytes = Stats bytes (%d) exactly;"
    (List.length entries) stats_bytes;
  line "  session span %.3f s vs wall %.3f s (%.2f%% apart); lint clean."
    session_s w_fid (100.0 *. session_gap);
  Sys.remove trace_file;
  (* the unpacked (default) path, pooled and unpooled: the revealed
     distance must match the packed profile's, and disabling the pool
     must not change what goes over the wire *)
  let w_default, r_default = run_spec ~packing:false ~offline:true () in
  line "  default (unpacked) path: wall %8.3f s" w_default;
  if
    Ppst.Protocol.distance_int r_default <> Ppst.Protocol.distance_int r_off
  then failwith "telemetry: packed distance diverges from the default path";
  if Ppst.Cost.pool_misses r_default.Ppst.Protocol.cost <> 0 then
    failwith "telemetry: default offline run paid online noise exponentiations";
  let _, r_unpooled = run_spec ~packing:false ~offline:false () in
  if not (same_transcript r_default r_unpooled) then
    failwith "telemetry: pooled vs unpooled transcripts diverge";
  line
    "  pooled vs unpooled transcript fingerprints identical (byte-level \
     identity is asserted by the test suite and scripts/ci.sh)";
  let speedup_packed = prior_baseline_wall /. w_off in
  let speedup_default = prior_baseline_wall /. w_default in
  line
    "  speedup vs the pre-overhaul baseline (%.1f s at 1024 bits): packed \
     %.1fx, default %.1fx"
    prior_baseline_wall speedup_packed speedup_default;
  let oc = open_out "BENCH_telemetry.json" in
  Printf.fprintf oc
    {|{
  "task": "telemetry overhead, secure DTW (wavefront, packed + pooled), JSONL file sink",
  "m": %d,
  "n": %d,
  "d": 1,
  "k": %d,
  "key_bits": %d,
  "runs_per_config": %d,
  "wall_seconds_telemetry_off": %.3f,
  "wall_seconds_telemetry_on": %.3f,
  "overhead_fraction": %.4f,
  "wall_seconds_default_path": %.3f,
  "prior_baseline_wall_seconds": %.3f,
  "speedup_packed_vs_prior_baseline": %.2f,
  "speedup_default_vs_prior_baseline": %.2f,
  "packed_distance_equals_default_path": true,
  "pooled_unpooled_transcripts_identical": true,
  "pool_misses_offline": 0,
  "trace": { "records": %d, "round_bytes": %d, "rounds": %d, "session_span_seconds": %.3f, "session_wall_seconds": %.3f },
  "transcripts_identical": true,
  "cost": %s,
  "stats": %s,
  "note": "Timed runs use the crypto hot path: fixed-base windowed exponentiation, offline noise pools, Montgomery-form homomorphic chains and plaintext packing. prior_baseline_wall_seconds is the same configuration measured before the overhaul (unpacked; naive modular arithmetic); the packed profile reveals the identical distance but not identical transcript bytes, so its speedup is distance-compared while the default path stays wire-compatible. Tracing records every span and per-round point (debug level) to a JSONL file; the trace's per-round byte totals equal the channel's Stats exactly, and the protocol.session span matches the measured wall clock within 1%%. Overhead is wall(on)/wall(off)-1, best-of-%d each; negative values are measurement noise."
}
|}
    length length params.Ppst.Params.k key_bits runs w_off w_on overhead
    w_default prior_baseline_wall speedup_packed speedup_default
    (List.length entries) stats_bytes
    (Stats.rounds r_fid.Ppst.Protocol.stats)
    session_s w_fid
    (Ppst.Cost.to_json r_fid.Ppst.Protocol.cost)
    (Stats.to_json r_fid.Ppst.Protocol.stats)
    runs;
  close_out oc;
  line "  wrote BENCH_telemetry.json";
  !telemetry_cli ()

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
     (seeded key, tiny series); throughput_run cross-checks every revealed
     distance against the plaintext reference *)
  let params = Ppst.Params.make () in
  let cx = Generate.ecg_int ~seed:12003 ~length:6 ~max_value in
  let cy = Generate.ecg_int ~seed:12004 ~length:6 ~max_value in
  let wall, _rejected, _stats =
    throughput_run ~params ~x:cx ~y:cy ~concurrency:2 ~total:2
      ~client_workers:2
  in
  line "  2 concurrent TCP sessions served in %.3f s; distances match the"
    wall;
  line "  plaintext reference.";
  line "  ok."

(* ---- secure 1-vs-N catalog search (Query vs naive sequential) ----------- *)

(* The paper's motivating scenario at catalog scale: the client's series
   is a noisy copy of one catalog record, and the question is how much
   of the catalog the secure lower-bound pruning stage (PROTOCOL.md
   §12) saves over the naive exhaustive scan — one exact protocol run
   per record over the same session, same spec, same key — while
   returning the bit-identical top-1. *)
let catalog_bench ~quick =
  let count = if quick then 20 else 100 in
  let length = if quick then 16 else 24 in
  let max_value = 80 in
  let band = 2 in
  (* an experiment-size key: the catalog-vs-naive comparison is
     relative, and both sides pay the identical per-ciphertext cost *)
  let key_bits = 256 in
  let params = Ppst.Params.make ~key_bits () in
  (* ECG-like records at five amplitude scales — a catalog of different
     sources, not uniform noise: smooth series with real amplitude
     diversity are what give the band-window envelopes their
     discriminating power.  (A uniform-random catalog has
     near-degenerate envelopes and the bound prunes little — the honest
     worst case, but not the paper's workload.) *)
  let store =
    let t = Store.create () in
    for i = 0 to count - 1 do
      Store.insert t
        ~id:(Printf.sprintf "rec%03d" i)
        (Generate.ecg_int ~seed:(13001 + i) ~length
           ~max_value:(20 + (i mod 5) * 15))
    done;
    t
  in
  (* query = record 0 plus +-1 deterministic noise, clamped to the
     catalog's value range: close enough that the first exact run sets
     a tight pruning threshold, the realistic "lookup a known patient"
     case. *)
  let x =
    let i = ref 0 in
    Series.map
      (Array.map (fun v ->
           incr i;
           let dv = (!i mod 3) - 1 in
           Stdlib.max 0 (Stdlib.min max_value (v + dv))))
      (Store.records store).(0)
  in
  let spec = Ppst.Protocol.spec ~band `Dtw in
  let bound =
    Stdlib.max 1 (Stdlib.max (Series.max_abs_value x) (Store.max_abs_value store))
  in
  line "secure 1-vs-%d catalog search: m = %d, d = 1, banded DTW (band %d), %d-bit modulus"
    count length band key_bits;
  (* catalog path: pruning + exact runs on the survivors *)
  let t0 = Unix.gettimeofday () in
  let report, qstats =
    Ppst.Query.run_top_k ~spec ~params ~seed:"catalog-bench" ~max_value:bound
      ~k:1 ~x ~store ()
  in
  let catalog_wall = Unix.gettimeofday () -. t0 in
  (* naive path: the same session machinery, every record exactly *)
  let t0 = Unix.gettimeofday () in
  let naive, nstats =
    let rng_of sfx = Secure_rng.of_seed_string ("catalog-bench-naive/" ^ sfx) in
    let server =
      Ppst.Server.of_store ~params ~rng:(rng_of "server") ~store
        ~max_value:bound ()
    in
    let channel = Channel.local (Ppst.Server.handle server) in
    let client =
      Ppst.Client.connect ~params ~query:true ~rng:(rng_of "client") ~series:x
        ~max_value:bound ~distance:`Dtw channel
    in
    let report = Ppst.Query.scan ~spec client in
    Ppst.Client.finish client;
    (report, Channel.stats channel)
  in
  let naive_wall = Unix.gettimeofday () -. t0 in
  let n_index, n_dist =
    match naive.Ppst.Query.hits with
    | [||] -> failwith "empty"
    | hits -> (hits.(0).Ppst.Query.index, hits.(0).Ppst.Query.distance)
  in
  let hit = report.Ppst.Query.hits.(0) in
  if hit.Ppst.Query.index <> n_index
     || Bigint.compare hit.Ppst.Query.distance n_dist <> 0
  then
    failwith
      (Printf.sprintf
         "catalog: pruned top-1 (record %d, %s) != exhaustive top-1 (record %d, %s)"
         hit.Ppst.Query.index
         (Bigint.to_string hit.Ppst.Query.distance)
         n_index (Bigint.to_string n_dist));
  let prune_rate =
    float_of_int report.Ppst.Query.pruned /. float_of_int report.Ppst.Query.total
  in
  line "  catalog query  %8.3f s  (%d pruned / %d, %d exact runs, %d B on the wire)"
    catalog_wall report.Ppst.Query.pruned report.Ppst.Query.total
    report.Ppst.Query.evaluated (Stats.total_bytes qstats);
  line "  naive scan     %8.3f s  (%d exact runs, %d B on the wire)" naive_wall
    count (Stats.total_bytes nstats);
  line "  speedup %.2fx, top-1 bit-identical (record %d, distance %s)"
    (naive_wall /. catalog_wall) n_index (Bigint.to_string n_dist);
  let oc = open_out "BENCH_catalog.json" in
  Printf.fprintf oc
    {|{
  "task": "secure 1-vs-N top-1 catalog search, banded DTW (band %d)",
  "catalog_size": %d,
  "length": %d,
  "d": 1,
  "k": %d,
  "key_bits": %d,
  "catalog": {
    "wall_seconds": %.3f,
    "pruned": %d,
    "evaluated": %d,
    "prune_rate": %.3f,
    "stats": %s
  },
  "naive": {
    "wall_seconds": %.3f,
    "stats": %s
  },
  "speedup_vs_naive": %.3f,
  "top1_identical": true,
  "top1": { "index": %d, "id": "%s", "distance": %s },
  "note": "The query series is a noisy copy of catalog record 0, so the first exact run of the top-1 search establishes a tight threshold and the secure lower bound (PROTOCOL.md section 12) discards most of the catalog. The naive baseline runs the identical exact protocol on every record over one session with the same key size; top-1 index and distance are asserted bit-identical before this file is written."
}
|}
    band count length params.Ppst.Params.k key_bits catalog_wall
    report.Ppst.Query.pruned report.Ppst.Query.evaluated prune_rate
    (Stats.to_json qstats) naive_wall (Stats.to_json nstats)
    (naive_wall /. catalog_wall)
    n_index hit.Ppst.Query.id
    (Bigint.to_string n_dist);
  close_out oc;
  line "  wrote BENCH_catalog.json"

(* ---- degraded mode: partial results and budget adherence --------------------- *)

(* The same 1-vs-N search under three failure shapes: a clean catalog, a
   poisoned candidate (every exact run against it draws a server error)
   and one black-holed candidate (its protocol rounds stall) under a
   per-candidate budget — plus a whole-query wall budget against a
   uniformly slow server, measuring how far past the declared budget the
   query actually runs.  Every partial result is cross-checked against a
   clean reference over the catalog minus the skipped record. *)
let degraded_bench ~quick =
  header "Degraded mode: partial catalog results, budget adherence";
  let count = if quick then 8 else 12 in
  let length = 12 in
  let k = 3 in
  let key_bits = 256 in
  let params = Ppst.Params.make ~key_bits () in
  let record i =
    Generate.ecg_int ~seed:(15001 + i) ~length ~max_value:(20 + (i mod 5) * 15)
  in
  let store_without skip =
    let t = Store.create () in
    for i = 0 to count - 1 do
      if i <> skip then Store.insert t ~id:(Printf.sprintf "rec%03d" i) (record i)
    done;
    t
  in
  let store = store_without (-1) in
  let x =
    let i = ref 0 in
    Series.map
      (Array.map (fun v ->
           incr i;
           let dv = (!i mod 3) - 1 in
           Stdlib.max 0 (Stdlib.min max_value (v + dv))))
      (Store.records store).(0)
  in
  let spec = Ppst.Protocol.spec `Euclidean in
  let bound =
    Stdlib.max 1 (Stdlib.max (Series.max_abs_value x) (Store.max_abs_value store))
  in
  line "degraded 1-vs-%d catalog search: m = %d, Euclidean, %d-bit modulus, k = %d"
    count length key_bits k;
  (* one query session over a loopback channel, with an optional request
     interceptor in front of the server — the fault *is* the wrapper *)
  let run ~seed ?wrap ?budget ?candidate_budget_s () =
    let rng_of sfx = Secure_rng.of_seed_string (seed ^ "/" ^ sfx) in
    let server =
      Ppst.Server.of_store ~params ~rng:(rng_of "server") ~store
        ~max_value:bound ()
    in
    let base = Ppst.Server.handle server in
    let handler = match wrap with Some w -> w base | None -> base in
    let channel = Channel.local handler in
    let client =
      Ppst.Client.connect ~params ~query:true ~rng:(rng_of "client") ~series:x
        ~max_value:bound ~distance:`Euclidean channel
    in
    let t0 = Unix.gettimeofday () in
    let report = Ppst.Query.top_k ~spec ?budget ?candidate_budget_s ~k client in
    let wall = Unix.gettimeofday () -. t0 in
    (try Ppst.Client.finish client with _ -> ());
    (report, wall)
  in
  let hit_pairs (r : Ppst.Query.report) =
    r.Ppst.Query.hits |> Array.to_list
    |> List.map (fun (h : Ppst.Query.hit) ->
        (h.Ppst.Query.id, Bigint.to_string h.Ppst.Query.distance))
  in
  (* the partial-result invariant: hits of a degraded run = a clean run
     over the catalog minus the skipped record *)
  let check_against_reference ~tag report skip =
    let reference, _ =
      Ppst.Query.run_top_k ~spec ~params
        ~seed:(Printf.sprintf "degraded-ref-%d" skip)
        ~max_value:bound ~k ~x ~store:(store_without skip) ()
    in
    if hit_pairs report <> hit_pairs reference then
      failwith
        (Printf.sprintf "%s: partial hits differ from the minus-%d reference"
           tag skip)
  in
  let the_incomplete ~tag (r : Ppst.Query.report) =
    match r.Ppst.Query.incomplete with
    | [| c |] -> c
    | arr ->
      failwith
        (Printf.sprintf "%s: expected exactly 1 incomplete, got %d" tag
           (Array.length arr))
  in
  (* clean *)
  let clean, clean_wall = run ~seed:"degraded-clean" () in
  if clean.Ppst.Query.incomplete <> [||] then failwith "clean run incomplete";
  line "  clean          %8.3f s  (%d hits, %d exact, %d pruned)" clean_wall
    (Array.length clean.Ppst.Query.hits)
    clean.Ppst.Query.evaluated clean.Ppst.Query.pruned;
  (* poisoned: one candidate always answers the exact run with an error.
     A threshold seed (index < k) is poisoned so the failure is hit on
     every run — a pruned mid-catalog candidate would never be selected
     — and the query must additionally survive the seed shortfall. *)
  let poisoned = 1 in
  let poison base req =
    match req with
    | Ppst_transport.Message.Select_request i when i = poisoned ->
      Ppst_transport.Message.Error_reply "poisoned candidate"
    | req -> base req
  in
  let preport, poisoned_wall = run ~seed:"degraded-poison" ~wrap:poison () in
  let pinc = the_incomplete ~tag:"poisoned" preport in
  check_against_reference ~tag:"poisoned" preport poisoned;
  line "  poisoned       %8.3f s  (%d hits, skipped %s: %s)" poisoned_wall
    (Array.length preport.Ppst.Query.hits)
    pinc.Ppst.Query.id
    (Ppst.Query.reason_to_string pinc.Ppst.Query.reason);
  (* one slow candidate: its rounds stall; the per-candidate budget cuts
     it loose while every other candidate resolves at full speed *)
  let slow = Stdlib.min 2 (count - 1) in
  let candidate_budget_s = 0.2 in
  let stall base =
    let selected = ref (-1) in
    fun req ->
      (match req with
       | Ppst_transport.Message.Select_request i -> selected := i
       | _ -> ());
      if !selected = slow then Thread.delay 0.08;
      base req
  in
  let sreport, slow_wall =
    run ~seed:"degraded-slow" ~wrap:stall ~candidate_budget_s ()
  in
  let sinc = the_incomplete ~tag:"slow" sreport in
  if sinc.Ppst.Query.reason <> Ppst.Query.Deadline then
    failwith "slow candidate not skipped on Deadline";
  check_against_reference ~tag:"slow" sreport slow;
  line "  one slow       %8.3f s  (%d hits, skipped %s after %.2f s sub-budget)"
    slow_wall
    (Array.length sreport.Ppst.Query.hits)
    sinc.Ppst.Query.id candidate_budget_s;
  (* whole-query budget against a uniformly slow server: every request
     costs a fixed stall, the budget binds mid-catalog, and the query
     must return within the declared budget plus at most ~one round *)
  let stall_all base req =
    Thread.delay 0.03;
    base req
  in
  let _, slow_clean_wall = run ~seed:"degraded-pace" ~wrap:stall_all () in
  let budget_s = Stdlib.max 0.15 (slow_clean_wall /. 2.0) in
  let breport, budget_wall =
    run ~seed:"degraded-budget" ~wrap:stall_all
      ~budget:(Retry.Budget.create ~budget_s ()) ()
  in
  let unresolved = Array.length breport.Ppst.Query.incomplete in
  if unresolved = 0 then failwith "whole-query budget never bound";
  let overshoot = budget_wall /. budget_s in
  line "  budgeted       %8.3f s  (budget %.3f s, %d unresolved, x%.3f of budget)"
    budget_wall budget_s unresolved overshoot;
  if budget_wall > (budget_s *. 1.10) +. 0.05 then
    failwith
      (Printf.sprintf "budget overshoot: %.3f s against a %.3f s budget"
         budget_wall budget_s);
  let oc = open_out "BENCH_degraded.json" in
  Printf.fprintf oc
    {|{
  "task": "degraded-mode 1-vs-N catalog search: partial results and budget adherence",
  "catalog_size": %d,
  "length": %d,
  "k": %d,
  "key_bits": %d,
  "clean": { "wall_seconds": %.3f, "hits": %d, "evaluated": %d, "pruned": %d, "incomplete": 0 },
  "poisoned": { "wall_seconds": %.3f, "hits": %d, "incomplete": 1, "skipped_id": "%s", "reason": "%s", "hits_match_reference": true },
  "one_slow": { "wall_seconds": %.3f, "hits": %d, "incomplete": 1, "skipped_id": "%s", "reason": "deadline", "candidate_budget_s": %.3f, "hits_match_reference": true },
  "budget_adherence": { "budget_s": %.3f, "wall_seconds": %.3f, "unresolved_candidates": %d, "overshoot_ratio": %.3f, "within_10pct": %b },
  "note": "Each degraded run's hits are asserted identical (id and exact distance) to a clean query over the catalog minus the skipped record before this file is written. The budget run paces every request through a fixed stall so the declared whole-query budget binds mid-catalog; overshoot_ratio is wall/budget and the harness fails if the query runs more than 10%% (plus 50 ms scheduling slack) past its budget."
}
|}
    count length k key_bits clean_wall
    (Array.length clean.Ppst.Query.hits)
    clean.Ppst.Query.evaluated clean.Ppst.Query.pruned poisoned_wall
    (Array.length preport.Ppst.Query.hits)
    pinc.Ppst.Query.id
    (Ppst.Query.reason_to_string pinc.Ppst.Query.reason)
    slow_wall
    (Array.length sreport.Ppst.Query.hits)
    sinc.Ppst.Query.id candidate_budget_s budget_s budget_wall unresolved
    overshoot
    (budget_wall <= (budget_s *. 1.10) +. 0.05);
  close_out oc;
  line "  wrote BENCH_degraded.json"

(* ---- observability: endpoint overhead, rollups, ledger ----------------------- *)

(* Minimal HTTP/1.0 GET against the loopback metrics sidecar; returns the
   whole response (headers + body). *)
let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let string_contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec at i = i + n <= m && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let observability_bench ~quick =
  header "Observability: metrics endpoint, windowed rollups, cost ledger";
  let module ME = Ppst_transport.Metrics_endpoint in
  let module Rollup = Ppst_telemetry.Rollup in
  let length = if quick then 8 else 12 in
  let key_bits = 256 in
  let params = Ppst.Params.make ~key_bits () in
  let x = Generate.ecg_int ~seed:14001 ~length ~max_value in
  let y = Generate.ecg_int ~seed:14002 ~length ~max_value in
  let rng = Secure_rng.of_seed_string "observability/keygen" in
  let _pk, sk = Ppst_paillier.Paillier.keygen ~bits:key_bits rng in
  (* A fresh Server_loop per configuration: session ids restart at 1, so
     identically-seeded clients must produce identical transcripts
     whether or not the sidecar is running. *)
  let with_loop ~enable_metrics f =
    let handler ~id ~peer:_ =
      let server =
        Ppst.Server.create_with_key ~sk
          ~rng:
            (Secure_rng.of_seed_string
               (Printf.sprintf "observability/session-%d" id))
          ~series:y ~max_value ()
      in
      Ppst.Server.handle server
    in
    let config =
      { Ppst_transport.Server_loop.default_config with enable_metrics }
    in
    let loop =
      Ppst_transport.Server_loop.create ~config ~port:0
        ~handler:(fun ~id ~peer -> Ppst_transport.Server_loop.respond_only (handler ~id ~peer)) ()
    in
    let runner =
      Thread.create (fun () -> Ppst_transport.Server_loop.run loop) ()
    in
    Fun.protect
      ~finally:(fun () ->
        Ppst_transport.Server_loop.shutdown loop;
        Thread.join runner)
      (fun () -> f (Ppst_transport.Server_loop.port loop))
  in
  let run_session ~port =
    let channel = Ppst_transport.Channel.connect ~host:"127.0.0.1" ~port () in
    let rng = Secure_rng.of_seed_string "observability/client" in
    let client =
      Ppst.Client.connect ~params ~rng ~series:x ~max_value ~distance:`Dtw
        channel
    in
    let t0 = Unix.gettimeofday () in
    let d = wavefront_dtw client in
    let wall = Unix.gettimeofday () -. t0 in
    let stats = Ppst.Client.stats client in
    let snapshot =
      ( Bigint.to_int_exn d,
        Stats.total_bytes stats,
        Stats.total_values stats,
        Stats.rounds stats )
    in
    Ppst.Client.finish client;
    (wall, snapshot)
  in
  (* one timed pass with the capability disabled (no sidecar); a fresh
     loop per run keeps session ids (and so transcripts) identical *)
  let run_off () =
    with_loop ~enable_metrics:false (fun port -> run_session ~port)
  in
  (* same session with the endpoint up and actively scraped while it runs *)
  let scrapes_during = ref 0 in
  let run_on () =
    with_loop ~enable_metrics:true (fun port ->
        let ep = ME.start ~port:0 () in
        Fun.protect
          ~finally:(fun () -> ME.stop ep)
          (fun () ->
            let mport = ME.port ep in
            let stop = Atomic.make false in
            let scraper =
              Thread.create
                (fun () ->
                  while not (Atomic.get stop) do
                    ignore (http_get ~port:mport "/metrics");
                    incr scrapes_during;
                    Thread.delay 0.01
                  done)
                ()
            in
            let w, snap = run_session ~port in
            Atomic.set stop true;
            Thread.join scraper;
            (w, (snap, http_get ~port:mport "/metrics"))))
  in
  (* wall clock on a sub-second session is noisy, so interleave the two
     configurations (off, on, off, on, ...) after a discarded warmup and
     compare the per-configuration minima; interleaving keeps slow phases
     of the host from landing entirely on one side of the comparison *)
  let runs = if quick then 2 else 3 in
  ignore (run_off ());
  let rec measure n (best_off, best_on) (snaps : _ option) =
    if n = 0 then (best_off, best_on, Option.get snaps)
    else
      let w_off, snap_off = run_off () in
      let w_on, on_result = run_on () in
      measure (n - 1)
        (Float.min best_off w_off, Float.min best_on w_on)
        (Some (snap_off, on_result))
  in
  let w_off, w_on, (snap_off, (snap_on, page)) =
    measure runs (infinity, infinity) None
  in
  let d_off, bytes_off, _, _ = snap_off in
  if d_off <> Distance.dtw_sq x y then
    failwith "observability: baseline distance diverges from plaintext";
  line
    "  wavefront DTW %dx%d over TCP, metrics disabled: %.3f s, %d bytes \
     (best of %d, interleaved)"
    length length w_off bytes_off runs;
  if snap_on <> snap_off then
    failwith
      "observability: seeded transcript diverges with the metrics endpoint \
       enabled";
  line
    "  same session, endpoint enabled + scraped %d time(s) concurrently: %.3f s"
    !scrapes_during w_on;
  line "  transcript identical (distance, bytes, values, rounds): verified";
  let overhead = (w_on -. w_off) /. w_off in
  line "  scrape-path overhead: %+.2f%% (noise bound 25%%)" (100.0 *. overhead);
  if overhead > 0.25 then
    failwith "observability: metrics scraping slowed the session beyond noise";
  (* the page itself: the query.* and server.* families must be exposed *)
  List.iter
    (fun family ->
      if not (string_contains page family) then
        failwith ("observability: exposition page lacks " ^ family))
    [
      "ppst_server_sessions_accepted";
      "ppst_query_submitted";
      "ppst_ledger_checks";
      "# EOF";
    ];
  let page_bytes = String.length page in
  line "  exposition page %d bytes; server.*, query.* and ledger.* families \
        present." page_bytes;
  (* windowed aggregation: exposition-time cost of a 15-slot window over
     the global registry (the clean path has no rollup hook at all) *)
  let rollup_calls = 1000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rollup_calls do
    ignore (Rollup.window (Rollup.global ()) ~slots:15)
  done;
  let window_micros =
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int rollup_calls
  in
  line
    "  Rollup.window (15 slots, global registry): %.1f us/call at exposition \
     time;"
    window_micros;
  line "  zero instrumentation on the metric update paths by construction.";
  (* the cost-attribution ledger balances on a seeded pairwise run *)
  let drift_before = Ppst.Ledger.drift_events () in
  let r =
    Ppst.Protocol.run ~spec:(Ppst.Protocol.spec `Dtw) ~params
      ~seed:"observability-ledger" ~max_value ~x ~y ()
  in
  check_against_plaintext `Dtw x y r;
  let ledger_predicted, ledger_actual =
    match Ppst.Ledger.recent () with
    | e :: _ -> (e.Ppst.Ledger.predicted_values, e.Ppst.Ledger.actual_values)
    | [] -> failwith "observability: no ledger entry after a pairwise run"
  in
  if Ppst.Ledger.drift_events () <> drift_before then
    failwith "observability: cost ledger drifted on a seeded pairwise run";
  line "  cost ledger: predicted %d = actual %d wire values, zero drift."
    ledger_predicted ledger_actual;
  let oc = open_out "BENCH_observability.json" in
  Printf.fprintf oc
    {|{
  "task": "observability overhead: metrics endpoint scrape during a live secure session, windowed rollups, cost-attribution ledger",
  "m": %d,
  "n": %d,
  "d": 1,
  "k": %d,
  "key_bits": %d,
  "wall_seconds_metrics_off": %.3f,
  "wall_seconds_metrics_on_scraped": %.3f,
  "scrape_overhead_fraction": %.4f,
  "scrapes_during_session": %d,
  "interleaved_runs_per_config": %d,
  "exposition_page_bytes": %d,
  "rollup_window_micros_per_call": %.1f,
  "transcripts_identical_endpoint_on_vs_off": true,
  "ledger": { "predicted_values": %d, "actual_values": %d, "drift_events": 0 },
  "note": "The sidecar endpoint serves the same closed-vocabulary aggregates as the in-protocol Metrics_req; a seeded session's transcript (distance, bytes, values, rounds) is identical whether the endpoint is off or scraped every 10 ms. Windowed aggregation differences boundary snapshots at exposition time only, so the metric update paths carry no rollup instrumentation. Overhead is wall(scraped)/wall(off)-1 on interleaved per-config minima after a discarded warmup; negative values are measurement noise."
}
|}
    length length params.Ppst.Params.k key_bits w_off w_on overhead
    !scrapes_during runs page_bytes window_micros ledger_predicted ledger_actual;
  close_out oc;
  line "  wrote BENCH_observability.json"

(* ---- driver -------------------------------------------------------------------- *)

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
   let apply () =
     Ppst_telemetry.Telemetry.configure ~level ~json ?trace_out ()
   in
   telemetry_cli := apply;
   apply ());
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
  if want "parallel" then
    with_tee out_dir "parallel" (fun () -> parallel_bench ~quick);
  if want "throughput" then
    with_tee out_dir "throughput" (fun () -> throughput ~quick);
  if want "telemetry" then
    with_tee out_dir "telemetry" (fun () -> telemetry_bench ~quick);
  if want "resilience" then
    with_tee out_dir "resilience" (fun () -> resilience ~quick);
  if want "failover" then
    with_tee out_dir "failover" (fun () -> failover_bench ~quick);
  if want "overload" then
    with_tee out_dir "overload" (fun () -> overload ~quick);
  if want "catalog" then
    with_tee out_dir "catalog" (fun () -> catalog_bench ~quick);
  if want "degraded" then
    with_tee out_dir "degraded" (fun () -> degraded_bench ~quick);
  if want "observability" then
    with_tee out_dir "observability" (fun () -> observability_bench ~quick);
  if want "smoke" then with_tee out_dir "smoke" (fun () -> smoke ());
  line "";
  line "done."
