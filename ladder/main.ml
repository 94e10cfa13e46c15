(* The ladder benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe smoke     every workload driver and the rung runner at toy
                        size, checking that every metric BENCHMARK.json
                        names is emitted

   With --trace 0 the run measures the end-to-end metrics with tracing
   off; with --trace 1 it prints the per-layer metrics (see Traced).  The
   last line of stdout is always one JSON object: {"correct",
   "attempted", "failed", "metrics"}.  A wrong distance, a wrong top-1, a
   failed operation or a metric left unmeasured makes the run exit 1. *)

module W = Workload

(* ---- untraced run: end-to-end metrics ----------------------------------- *)

let setup_min_reps = 9

(* Seconds of repeated set-ups; the smoke run shrinks it. *)
let setup_window_s = ref 1.0

(* Set up at least [setup_min_reps] times and for at least
   [!setup_window_s], and keep the first; the reported set-up time is the
   median of the process CPU seconds each set-up took, at the probe's
   reference speed (slices just before and after each set-up).  A cheap
   set-up thus repeats hundreds of times, so a slow stretch of a shared
   host (a few hundred ms is common) cannot carry the median. *)
let timed_setup w ~seed =
  let time () =
    let probe = Probe.create () in
    Probe.burst probe W.edge_slices;
    let c0 = Summary.process_cpu () in
    let env = W.setup w ~seed in
    let cpu = Summary.process_cpu () -. c0 in
    Probe.burst probe W.edge_slices;
    (Probe.rescale probe cpu, env)
  in
  let t_begin = Summary.now () in
  let t_first, env = time () in
  let rec more reps acc =
    if reps >= setup_min_reps && Summary.now () -. t_begin >= !setup_window_s then acc
    else begin
      let t, e = time () in
      W.dispose e;
      more (reps + 1) (t :: acc)
    end
  in
  let times = t_first :: more 1 [] in
  Printf.printf "  set-up: %d repetitions, quartiles %s ms\n" (List.length times)
    (String.concat " / "
       (List.map (fun p -> Printf.sprintf "%.3f" (1e3 *. Summary.percentile p times)) [ 0.25; 0.5; 0.75 ]));
  (env, Summary.median times)

(* One closed-loop client: the next operation starts when the previous
   one ends.  An operation starts only if one more of the last one's
   length still ends by [until], so a run of long operations does not
   overrun its time. *)
let closed_loop env ~last ~until =
  let rec go i last acc =
    if Summary.now () +. last > until then List.rev acc
    else
      let s = W.op ~probed:true env ~index:i in
      go (i + 1) s.W.wall (s :: acc)
  in
  go 1 last []

(* Each probed sample's client and server CPU seconds at the reference
   speed.  Loopback: both parties' shares, rescaled by the operation's
   slices.  TCP: the client's by its edge slices, and the server's by the
   slices of its session in the child: the child's CPU from the stamp
   that session took to the next session's stamp, less those slices.
   The last session has no next stamp, so the last TCP sample drops
   out. *)
let rescaled ~stamps samples =
  match stamps with
  | None ->
    List.map
      (fun s -> (Probe.rescale s.W.probe s.W.client_cpu_s, Probe.rescale s.W.probe s.W.server_cpu_s))
      samples
  | Some stamps ->
    let rec spans = function
      | (a : W.session_stamp) :: (b :: _ as rest) ->
        (a, Probe.rescale a.W.probe (b.W.cpu -. a.W.cpu -. a.W.probe.Probe.spent)) :: spans rest
      | _ -> []
    in
    let spans = spans stamps in
    List.filter_map
      (fun s ->
        List.find_map
          (fun (a, server) ->
            if a.W.opened >= s.W.start && a.W.opened <= s.W.stop then
              Some (Probe.rescale s.W.probe s.W.client_cpu_s, server)
            else None)
          spans)
      samples

let print_quartiles label unit xs =
  Printf.printf "  %-16s quartiles %s %s\n" label
    (String.concat " / "
       (List.map (fun p -> Printf.sprintf "%.4f" (Summary.percentile p xs)) [ 0.25; 0.5; 0.75 ]))
    unit

let untraced w ~seed ~seconds =
  let env, setup_s = timed_setup w ~seed in
  (* the reference operation (index 0) runs alone, so its transcript —
     wire_bytes and rounds — depends on the seed only; it also warms the
     loopback workloads up *)
  let reference = W.op env ~index:0 in
  let measure_from = Summary.now () +. w.W.warmup_s in
  let until = measure_from +. seconds in
  let all = closed_loop env ~last:reference.W.wall ~until in
  let measured = List.filter (fun s -> s.W.start >= measure_from) all in
  let child = match env.W.server with Some s -> Tcp.stop s | None -> [] in
  let child_hwm = Tcp.report_int child "hwm" in
  let stamps = Option.map (fun _ -> W.parse_stamps child) env.W.server in
  let with_cpu = rescaled ~stamps measured in
  let client_cpu = List.map fst with_cpu in
  let server_cpu = List.map snd with_cpu in
  let session_cpu = List.map2 ( +. ) client_cpu server_cpu in
  let raw_cpu =
    List.map
      (fun s ->
        s.W.client_cpu_s +. if Float.is_nan s.W.server_cpu_s then 0.0 else s.W.server_cpu_s)
      measured
  in
  let speed = List.map (fun s -> Probe.speed s.W.probe) measured in
  let walls = List.map (fun s -> s.W.wall) measured in
  let window =
    List.fold_left (fun a s -> Float.max a s.W.stop) neg_infinity measured
    -. List.fold_left (fun a s -> Float.min a s.W.start) infinity measured
  in
  let n = List.length measured in
  let mk = Metric.make in
  let metrics =
    [
      mk "setup_s" "s" setup_s;
      mk "session_cpu_s" "s" (Summary.median session_cpu);
      mk "client_cpu_s" "s" (Summary.median client_cpu);
      mk "server_cpu_s" "s" (Summary.median server_cpu);
      mk "wire_bytes" "bytes" (float_of_int reference.W.bytes);
      mk "rounds" "count" (float_of_int reference.W.rounds);
      mk "peak_rss_mb" "MiB" (float_of_int (Summary.vm_hwm_kib () + child_hwm) /. 1024.0);
    ]
  in
  Printf.printf
    "%s seed %d: %d timed operations (%d with both parties' CPU) over %.1f s after %.1f s \
     warm-up (%d run)\n"
    w.W.name seed n (List.length with_cpu) window w.W.warmup_s (List.length all + 1);
  print_quartiles "session" "ref. s" session_cpu;
  print_quartiles "session wall" "s" walls;
  print_quartiles "probe speed" "x reference" speed;
  (* wall-clock numbers and raw CPU move with the host's contention, so
     they are reported here and not as metrics; a p90 would also need at
     least 100 samples to leave ten beyond it *)
  Printf.printf "  session p90 wall %.6f s, %.3f sessions/s over %d sessions\n"
    (Summary.percentile 0.9 walls) (float_of_int n /. window) n;
  let in_order label f xs =
    Printf.printf "  %s, in order: %s\n" label (String.concat " " (List.map f xs))
  in
  in_order "session at reference speed (ms)" (fun x -> Printf.sprintf "%.0f" (x *. 1e3)) session_cpu;
  in_order "raw CPU of this process (ms)" (fun x -> Printf.sprintf "%.0f" (x *. 1e3)) raw_cpu;
  in_order "probe speed" (Printf.sprintf "%.2f") speed;
  Metric.print_table metrics;
  let samples = reference :: all in
  (metrics, List.length samples, List.length (List.filter (fun s -> not s.W.ok) samples))

(* ---- smoke -------------------------------------------------------------- *)

let contains text sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length text && (String.sub text i n = sub || at (i + 1)) in
  at 0

(* Metric names listed under [key] in BENCHMARK.json: every "name" value
   between the key and the next closing bracket. *)
let benchmark_names key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let index_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  match index_from 0 (Printf.sprintf "\"%s\"" key) with
  | None -> []
  | Some start ->
    let stop = Option.value (index_from start "]") ~default:(String.length text) in
    let rec names i acc =
      match index_from i "\"name\"" with
      | Some j when j < stop ->
        let q1 = String.index_from text (j + 6) '"' in
        let q2 = String.index_from text (q1 + 1) '"' in
        names q2 (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
      | _ -> List.rev acc
    in
    names start []

(* Toy runs hold only 64-bit keys, so a rung named for another key size
   is checked through its .k64 twin — the same function at toy size. *)
let toy_name name =
  match String.rindex_opt name '.' with
  | Some i when i + 1 < String.length name && name.[i + 1] = 'k' -> (
    match int_of_string_opt (String.sub name (i + 2) (String.length name - i - 2)) with
    | Some bits when List.mem bits Rungs.key_sizes -> String.sub name 0 i ^ ".k64"
    | _ -> name)
  | _ -> name

(* Runs this executable once per workload and mode, each in a fresh
   process at toy size (LADDER_TOY=1), and checks the metric names each
   one emits. *)
let smoke () =
  let t0 = Summary.now () in
  let expect_e2e = benchmark_names "end_to_end" and expect_layer = benchmark_names "per_layer" in
  if expect_e2e = [] || expect_layer = [] then failwith "smoke: BENCHMARK.json lists no metrics";
  let run w trace =
    let args =
      [| Sys.executable_name; "--workload"; w.W.name; "--seed"; "1"; "--seconds"; "1"; "--trace"; trace |]
    in
    let env = Array.append [| "LADDER_TOY=1" |] (Unix.environment ()) in
    let out, inp = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process_env Sys.executable_name args env Unix.stdin inp Unix.stderr in
    Unix.close inp;
    let output = In_channel.input_all (Unix.in_channel_of_descr out) in
    Unix.close out;
    let _, status = Unix.waitpid [] pid in
    if status <> Unix.WEXITED 0 then
      failwith (Printf.sprintf "smoke: %s --trace %s failed" w.W.name trace);
    let last = List.hd (List.rev (String.split_on_char '\n' (String.trim output))) in
    let expected =
      List.sort_uniq compare
        (List.map toy_name (if trace = "0" then expect_e2e else expect_layer))
    in
    let missing =
      List.filter
        (fun name -> not (contains last (Printf.sprintf "%S: {\"value\"" name)))
        expected
    in
    if missing <> [] then
      failwith
        (Printf.sprintf "smoke: %s --trace %s did not emit %s" w.W.name trace
           (String.concat ", " missing));
    (* every expected name is there, so an equal count leaves no extra *)
    let emitted = List.length (String.split_on_char '{' last) - 3 in
    if emitted <> List.length expected then
      failwith
        (Printf.sprintf "smoke: %s --trace %s emitted %d metrics, BENCHMARK.json names %d"
           w.W.name trace emitted (List.length expected));
    Printf.printf "  %-12s trace=%s  %d metrics, exactly those BENCHMARK.json names\n%!"
      w.W.name trace emitted
  in
  List.iter
    (fun w ->
      run w "0";
      run w "1")
    W.all;
  Printf.printf "smoke ok in %.1f s\n" (Summary.now () -. t0)

(* ---- command line ------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe smoke\n\
     workloads: pair-packed pair-wire tcp-paper catalog";
  exit 2

let () =
  (* a run that dies must not leave a forked server behind *)
  at_exit Tcp.kill_all;
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "smoke" ] -> smoke ()
  | _ ->
    let rec opt key = function
      | k :: v :: _ when k = key -> Some v
      | _ :: rest -> opt key rest
      | [] -> None
    in
    let int_opt key = Option.bind (opt key args) int_of_string_opt in
    let w = match Option.bind (opt "--workload" args) W.find with Some w -> w | None -> usage () in
    let seed = match int_opt "--seed" with Some s -> s | None -> usage () in
    let seconds = match int_opt "--seconds" with Some s when s > 0 -> s | _ -> usage () in
    let trace =
      match opt "--trace" args with Some "1" -> true | Some "0" | None -> false | _ -> usage ()
    in
    (* a hung run still ends, its server child stopped by [at_exit],
       inside the three minutes a run may take *)
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           prerr_endline "ladder: run exceeded its time limit";
           exit 3));
    ignore (Unix.alarm 170);
    (* toy size, set by [smoke] for its child runs: 64-bit keys, 0.25 s
       windows except the TCP workload's untraced 1 s, tiny rung budgets,
       the fewest set-ups *)
    let toy = Sys.getenv_opt "LADDER_TOY" = Some "1" in
    let seconds = if toy && (trace || not (W.is_tcp w)) then 0.25 else float_of_int seconds in
    let w = if toy then W.toy w else w in
    if toy then begin
      Rungs.budget_scale := 0.05;
      setup_window_s := 0.0
    end;
    (* untraced, every thread and the TCP server child share one CPU, so
       the probe's slices run where the operation runs; the traced run
       stays free, for the pool's two-lane rung *)
    if not trace then Printf.printf "pinned to CPU %d\n" (Summary.pin_first_cpu ());
    let metrics, attempted, failed =
      if trace then Traced.run ?sizes:(if toy then Some [ 64 ] else None) w ~seed ~seconds
      else untraced w ~seed ~seconds
    in
    let unmeasured = Metric.unmeasured ~zero:(not trace) metrics in
    List.iter
      (fun mt -> Printf.eprintf "ladder: metric %s was not measured\n%!" mt.Metric.name)
      unmeasured;
    let failed = failed + List.length unmeasured in
    Metric.print_result ~attempted ~failed metrics;
    if failed > 0 then exit 1
