(* OpenMetrics/Prometheus text exposition of the Metrics registry.

   Metric names are sanitized into the Prometheus grammar (letters,
   digits, underscores) by mapping every other character to '_' and
   prefixing "ppst_".  The registry's closed-vocabulary guarantee carries
   over unchanged: names are static strings from instrumentation sites and
   values are numbers, so the rendered page exposes the same aggregate
   surface as Stats_req, just in a scrapeable shape. *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let metric_name name = "ppst_" ^ sanitize name

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let add_family b name kind =
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)

let render_registry b =
  List.iter
    (fun (name, sample) ->
      let pname = metric_name name in
      match sample with
      | Metrics.Counter_sample v ->
        add_family b pname "counter";
        Buffer.add_string b (Printf.sprintf "%s %d\n" pname v)
      | Metrics.Gauge_sample v ->
        add_family b pname "gauge";
        Buffer.add_string b (Printf.sprintf "%s %s\n" pname (fmt_float v))
      | Metrics.Histogram_sample h ->
        add_family b pname "histogram";
        let cum = ref 0 in
        Array.iter
          (fun (bound, n) ->
            cum := !cum + n;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%g\"} %d\n" pname bound !cum))
          h.Metrics.buckets;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname h.Metrics.count);
        Buffer.add_string b
          (Printf.sprintf "%s_sum %s\n" pname (fmt_float h.Metrics.sum));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" pname h.Metrics.count))
    (Metrics.snapshot ())

(* Windowed families are rendered as gauges (they can go up and down)
   with a window label, e.g.
     ppst_query_pruned_delta{window="60s"} 8
     ppst_query_stage1_seconds_p99{window="60s"} 0.41 *)
let render_rollup b rollup =
  Rollup.tick rollup;
  let slot = Rollup.slot_seconds rollup in
  let windows = [ 1; 5; 15 ] in
  let emitted = Hashtbl.create 16 in
  let family name =
    if not (Hashtbl.mem emitted name) then begin
      Hashtbl.replace emitted name ();
      add_family b name "gauge"
    end
  in
  List.iter
    (fun slots ->
      let w = Rollup.window rollup ~slots in
      let label = Printf.sprintf "%ds" (int_of_float (float_of_int slots *. slot)) in
      List.iter
        (fun (c : Rollup.windowed_counter) ->
          let base = metric_name c.Rollup.wc_name in
          family (base ^ "_delta");
          Buffer.add_string b
            (Printf.sprintf "%s_delta{window=%S} %d\n" base label c.Rollup.wc_delta);
          family (base ^ "_rate");
          Buffer.add_string b
            (Printf.sprintf "%s_rate{window=%S} %s\n" base label
               (fmt_float c.Rollup.wc_rate)))
        w.Rollup.w_counters;
      List.iter
        (fun (h : Rollup.windowed_histogram) ->
          let base = metric_name h.Rollup.wh_name in
          List.iter
            (fun (suffix, v) ->
              family (base ^ suffix);
              Buffer.add_string b
                (Printf.sprintf "%s%s{window=%S} %s\n" base suffix label
                   (fmt_float v)))
            [
              ("_window_count", float_of_int h.Rollup.wh_count);
              ("_p50", h.Rollup.wh_p50);
              ("_p95", h.Rollup.wh_p95);
              ("_p99", h.Rollup.wh_p99);
            ])
        w.Rollup.w_histograms)
    windows;
  List.iter
    (fun (name, rate) ->
      let base = metric_name name in
      family (base ^ "_ewma");
      Buffer.add_string b (Printf.sprintf "%s_ewma %s\n" base (fmt_float rate)))
    (Rollup.ewma rollup)

let render () =
  let b = Buffer.create 4096 in
  render_registry b;
  render_rollup b (Rollup.global ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
