(* Security-analysis CLI: the paper's Section 5.3/5.4 numbers from the
   command line — entropy-preservation curves, gap-attack simulations,
   parameter planning, and the Section 4 matrix-inference demonstration. *)

open Cmdliner

let entropy gammas = List.iter print_endline (Ppst.Entropy.table gammas)

let attack beta slacks k trials seed =
  Printf.printf "gap-attack simulation: beta=%d k=%d trials=%d (baseline %.4f)\n"
    beta k trials
    (Ppst.Leakage.guess_baseline ~k);
  Printf.printf "%12s %12s %12s\n" "gamma-beta" "successes" "rate";
  List.iter
    (fun slack ->
      let r =
        Ppst.Leakage.cluster_attack ~beta ~gamma:(beta + slack) ~k ~trials ~seed
      in
      Printf.printf "%12d %12d %12.4f%s\n" slack r.Ppst.Leakage.successes
        r.Ppst.Leakage.rate
        (let alpha =
           let rec lg v a = if v <= 1 then a else lg (v / 2) (a + 1) in
           lg k 0
         in
         if slack > 0 && slack < alpha then "   (valid per Section 5.3)"
         else "   (violates 0 < gamma-beta < alpha)"))
    slacks

let plan max_value dimension m n key_bits k slack distance =
  let rng = Ppst_rng.Secure_rng.system () in
  let pk, _ = Ppst_paillier.Paillier.keygen ~bits:key_bits rng in
  let params = Ppst.Params.make ~key_bits ~k ~gamma_slack:slack () in
  let kind =
    match distance with
    | "dtw" -> `Dtw
    | "dfd" -> `Dfd
    | "erp" -> `Erp
    | "euclidean" -> `Euclidean
    | other -> failwith ("unknown distance: " ^ other)
  in
  match
    Ppst.Params.plan params ~max_value ~dimension ~client_length:m
      ~server_length:n ~modulus:pk.Ppst_paillier.Paillier.n ~distance:kind
  with
  | session ->
    Format.printf "parameters accepted:@.%a@." Ppst.Params.pp_session session;
    let gap = if kind = `Erp then Some (Array.make dimension 0) else None in
    Printf.printf "communication estimate (%s): %d values\n" distance
      (Ppst.Protocol.expected_values_transferred ~params ~m ~n ~d:dimension
         (Ppst.Protocol.spec ?gap kind))
  | exception Ppst.Params.Insecure reason ->
    Printf.printf "REJECTED: %s\n" reason;
    exit 1

let infer () =
  (* the Section 4 demonstration on the paper's own example *)
  let module S = Ppst_timeseries.Series in
  let module D = Ppst_timeseries.Distance in
  let x = S.of_list [ 3; 4; 5; 4; 6; 7 ] and y = S.of_list [ 2; 4; 6; 5; 7 ] in
  Printf.printf "client series X = (3,4,5,4,6,7); hidden server series Y = ?\n";
  Printf.printf "suppose the DP matrix leaked in plaintext (paper Figure 1):\n";
  let matrix = D.dtw_sq_matrix x y in
  Array.iter
    (fun row ->
      Array.iter (fun v -> Printf.printf "%4d" v) row;
      print_newline ())
    matrix;
  match Ppst.Leakage.infer_server_series ~x ~matrix with
  | Some inferred ->
    Printf.printf "reconstructed Y = (%s) -- this is why the matrix is encrypted\n"
      (String.concat "," (Array.to_list (Array.map string_of_int inferred)))
  | None -> print_endline "reconstruction ambiguous"

(* JSONL telemetry traces (--trace-out on ppst_server/ppst_client/bench):
   per-phase and per-round aggregation, plus the leakage lint ci.sh runs
   over every trace it produces. *)

let opcode_name = Ppst_transport.Message.request_name

(* Exit codes under --lint: 1 = leakage violation (hard failure), 3 = the
   trace tail was cut mid-record (a killed writer, not corruption) — CI can
   distinguish "leaky" from "merely incomplete". *)
let exit_truncated = 3

let read_trace file =
  let module R = Ppst_telemetry.Trace_reader in
  match R.read_file_partial file with
  | exception R.Parse_error msg ->
    Printf.eprintf "%s: %s\n" file msg;
    exit 1
  | entries, tail ->
    (match tail with
     | R.Complete -> ()
     | R.Truncated { line; reason } ->
       Printf.eprintf
         "%s: warning: final record (line %d) is truncated: %s; \
          analyzing the %d complete record(s) before it\n"
         file line reason (List.length entries));
    (entries, tail)

let trace file lint =
  let module R = Ppst_telemetry.Trace_reader in
  let entries, tail = read_trace file in
  let truncated = tail <> R.Complete in
  let violations =
    List.filter_map
      (fun e -> Option.map (fun r -> (e.R.name, r)) (R.lint_entry e))
      entries
  in
  if lint then
    if violations = [] then
      Printf.printf "lint: %d record(s), no leakage-lint violations%s\n"
        (List.length entries)
        (if truncated then " (tail truncated)" else "")
    else begin
      List.iter
        (fun (name, reason) ->
          Printf.eprintf "lint: record %S: %s\n" name reason)
        violations;
      exit 1
    end;
  R.pp_summary ~opcode_name Format.std_formatter (R.summarize entries);
  if lint && truncated then exit exit_truncated

(* ---- trace diff: per-phase / per-round regression gate ---- *)

(* A regression needs both a relative excess beyond [threshold] and an
   absolute one beyond the floor: seeded runs repeat their byte counts
   exactly, but sub-floor latencies are scheduler noise, and the floors
   keep two runs of the same seed quiet while a genuine 2x per-phase
   slowdown still trips the relative test. *)
let diff base_file cand_file threshold latency_floor_ms byte_floor =
  let module R = Ppst_telemetry.Trace_reader in
  let summarize f = R.summarize (fst (read_trace f)) in
  let a = summarize base_file and b = summarize cand_file in
  let latency_floor = latency_floor_ms /. 1000.0 in
  let regressions = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt in
  let check ~what ~floor ~old_v ~new_v =
    if new_v -. old_v > floor && new_v > old_v *. (1.0 +. threshold) then
      flag "%s: %.6g -> %.6g (+%.0f%%)" what old_v new_v
        (100.0 *. ((new_v /. Float.max old_v 1e-12) -. 1.0))
  in
  List.iter
    (fun (sb : R.span_row) ->
      match
        List.find_opt (fun (sa : R.span_row) -> sa.R.span_name = sb.R.span_name) a.R.spans
      with
      | None -> ()
      | Some sa ->
        check
          ~what:(Printf.sprintf "span %s total seconds" sb.R.span_name)
          ~floor:latency_floor ~old_v:sa.R.total_s ~new_v:sb.R.total_s)
    b.R.spans;
  List.iter
    (fun (rb : R.round_row) ->
      match
        List.find_opt (fun (ra : R.round_row) -> ra.R.opcode = rb.R.opcode) a.R.rounds
      with
      | None ->
        if rb.R.request_bytes + rb.R.reply_bytes > byte_floor then
          flag "round %s: absent from baseline (%d bytes)"
            (opcode_name rb.R.opcode)
            (rb.R.request_bytes + rb.R.reply_bytes)
      | Some ra ->
        check
          ~what:(Printf.sprintf "round %s latency seconds" (opcode_name rb.R.opcode))
          ~floor:latency_floor ~old_v:ra.R.latency_s ~new_v:rb.R.latency_s;
        check
          ~what:(Printf.sprintf "round %s bytes" (opcode_name rb.R.opcode))
          ~floor:(float_of_int byte_floor)
          ~old_v:(float_of_int (ra.R.request_bytes + ra.R.reply_bytes))
          ~new_v:(float_of_int (rb.R.request_bytes + rb.R.reply_bytes)))
    b.R.rounds;
  check ~what:"total round bytes" ~floor:(float_of_int byte_floor)
    ~old_v:(float_of_int a.R.total_round_bytes)
    ~new_v:(float_of_int b.R.total_round_bytes);
  check ~what:"total latency seconds" ~floor:latency_floor
    ~old_v:a.R.total_latency_s ~new_v:b.R.total_latency_s;
  match List.rev !regressions with
  | [] ->
    Printf.printf
      "diff: no regressions (%s -> %s, threshold +%.0f%%, floors %gms / %d bytes)\n"
      base_file cand_file (100.0 *. threshold) latency_floor_ms byte_floor
  | found ->
    List.iter (fun r -> Printf.eprintf "regression: %s\n" r) found;
    Printf.eprintf "diff: %d regression(s) beyond +%.0f%%\n" (List.length found)
      (100.0 *. threshold);
    exit 1

(* ---- cmdliner plumbing ---- *)

let entropy_cmd =
  let gammas =
    Arg.(value & opt (list int) [ 4; 8; 12; 16; 20 ]
         & info [ "gamma-bits" ] ~docv:"BITS,..." ~doc:"Offset-range sizes to tabulate (log2).")
  in
  Cmd.v (Cmd.info "entropy" ~doc:"Section 5.4 entropy-preservation table")
    Term.(const entropy $ gammas)

let attack_cmd =
  let beta = Arg.(value & opt int 20 & info [ "beta" ] ~doc:"Plaintext range (log2).") in
  let slacks =
    Arg.(value & opt (list int) [ 1; 2; 4; 8; 16 ]
         & info [ "slacks" ] ~docv:"S,..." ~doc:"gamma - beta values to test.")
  in
  let k = Arg.(value & opt int 10 & info [ "k" ] ~doc:"Random-set size.") in
  let trials = Arg.(value & opt int 2000 & info [ "trials" ] ~doc:"Simulated rounds.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  Cmd.v (Cmd.info "attack" ~doc:"Section 5.3 gap-attack simulation")
    Term.(const attack $ beta $ slacks $ k $ trials $ seed)

let plan_cmd =
  let max_value = Arg.(value & opt int 100 & info [ "max-value" ] ~doc:"Coordinate bound.") in
  let dimension = Arg.(value & opt int 1 & info [ "dim" ] ~doc:"Element dimension.") in
  let m = Arg.(value & opt int 100 & info [ "m" ] ~doc:"Client series length.") in
  let n = Arg.(value & opt int 100 & info [ "n" ] ~doc:"Server series length.") in
  let key_bits = Arg.(value & opt int 64 & info [ "bits" ] ~doc:"Paillier modulus size.") in
  let k = Arg.(value & opt int 10 & info [ "k" ] ~doc:"Random-set size.") in
  let slack = Arg.(value & opt int 2 & info [ "slack" ] ~doc:"gamma - beta.") in
  let distance =
    Arg.(value & opt string "dtw" & info [ "distance" ] ~doc:"dtw, dfd, erp or euclidean.")
  in
  Cmd.v (Cmd.info "plan" ~doc:"validate masking parameters for a workload")
    Term.(const plan $ max_value $ dimension $ m $ n $ key_bits $ k $ slack $ distance)

let infer_cmd =
  Cmd.v (Cmd.info "infer" ~doc:"Section 4 matrix-inference attack demonstration")
    Term.(const infer $ const ())

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.jsonl"
         ~doc:"Telemetry trace written by --trace-out.")
  in
  let lint =
    Arg.(value & flag & info [ "lint" ]
         ~doc:"Leakage lint: fail if any record carries free-form strings or out-of-range numbers.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"summarize a JSONL telemetry trace (per-phase and per-round tables)")
    Term.(const trace $ file $ lint)

let diff_cmd =
  let base =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE.jsonl"
         ~doc:"Baseline telemetry trace.")
  in
  let cand =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE.jsonl"
         ~doc:"Candidate telemetry trace to compare against the baseline.")
  in
  let threshold =
    Arg.(value & opt float 0.6 & info [ "threshold" ] ~docv:"FRAC"
         ~doc:"Relative excess that counts as a regression (0.6 = +60%).")
  in
  let latency_floor =
    Arg.(value & opt float 5.0 & info [ "latency-floor-ms" ] ~docv:"MS"
         ~doc:"Ignore latency deltas smaller than this (scheduler noise).")
  in
  let byte_floor =
    Arg.(value & opt int 64 & info [ "byte-floor" ] ~docv:"BYTES"
         ~doc:"Ignore byte-count deltas smaller than this.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"compare two telemetry traces; exit 1 on per-phase latency or byte regressions")
    Term.(const diff $ base $ cand $ threshold $ latency_floor $ byte_floor)

let () =
  let doc = "security analysis for the secure time-series protocols" in
  exit (Cmd.eval (Cmd.group (Cmd.info "ppst_analyze" ~doc)
                    [ entropy_cmd; attack_cmd; plan_cmd; infer_cmd; trace_cmd;
                      diff_cmd ]))
