(* Windowed aggregation over the cumulative Metrics registry.

   Design: nothing hooks the metric hot paths.  A rollup keeps a ring of
   boundary snapshots — the full cumulative registry captured at slot
   boundaries (default one per minute) — and a window is simply "live
   snapshot minus the boundary N slots back".  The clean-path cost of
   windowed aggregation is therefore zero by construction: counters and
   histograms are updated exactly as before, and all differencing happens
   at exposition time.

   Snapshots are taken opportunistically: [tick] (called by every reader)
   advances the ring when the clock has crossed a slot boundary.  If the
   process is idle across several boundaries the missed slots share one
   snapshot, which correctly attributes zero activity to them.

   The clock is injectable for tests (same pattern as Resume_table and
   Ratelimit); the default is the monotonic clock. *)

type boundary = { b_time : float; b_samples : (string * Metrics.sample) list }

type t = {
  mu : Mutex.t;
  now : unit -> float;
  slot_s : float;
  epoch : float;
  mutable current_slot : int;
  boundaries : (int, boundary) Hashtbl.t;
  ewma : (string, float) Hashtbl.t;  (* counter name -> smoothed rate/s *)
}

(* Boundaries kept behind the current slot: enough for a 15-minute
   window of one-minute slots. *)
let retain = 16

(* EWMA smoothing: the weight of the newest slot's rate. *)
let alpha = 0.3

let create ?now:clock ?(slot_s = 60.0) () =
  let clock = match clock with Some f -> f | None -> Telemetry.now in
  if slot_s <= 0.0 then invalid_arg "Rollup.create: slot_s must be positive";
  let epoch = clock () in
  let t =
    {
      mu = Mutex.create ();
      now = clock;
      slot_s;
      epoch;
      current_slot = 0;
      boundaries = Hashtbl.create 32;
      ewma = Hashtbl.create 32;
    }
  in
  Hashtbl.replace t.boundaries 0 { b_time = epoch; b_samples = Metrics.snapshot () };
  t

(* Counter deltas between two cumulative snapshots; a counter missing
   from [older] counts from zero. *)
let counter_deltas newer older =
  let old_tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, s) ->
      match s with
      | Metrics.Counter_sample v -> Hashtbl.replace old_tbl name v
      | _ -> ())
    older;
  List.filter_map
    (fun (name, s) ->
      match s with
      | Metrics.Counter_sample v ->
        let before = Option.value ~default:0 (Hashtbl.find_opt old_tbl name) in
        Some (name, max 0 (v - before))
      | _ -> None)
    newer

let tick_locked t =
  let nowv = t.now () in
  let slot = int_of_float ((nowv -. t.epoch) /. t.slot_s) in
  if slot > t.current_slot then begin
    let snap = Metrics.snapshot () in
    (* EWMA update: the rate observed since the last recorded boundary,
       folded in once per advance. *)
    (match Hashtbl.find_opt t.boundaries t.current_slot with
    | Some prev ->
      let boundary_time = t.epoch +. (float_of_int slot *. t.slot_s) in
      let dt = Float.max (boundary_time -. prev.b_time) 1e-9 in
      List.iter
        (fun (name, delta) ->
          let rate = float_of_int delta /. dt in
          let smoothed =
            match Hashtbl.find_opt t.ewma name with
            | None -> rate
            | Some prev_rate -> (alpha *. rate) +. ((1.0 -. alpha) *. prev_rate)
          in
          Hashtbl.replace t.ewma name smoothed)
        (counter_deltas snap prev.b_samples)
    | None -> ());
    (* Record the snapshot at every boundary crossed (idle slots share
       it), bounded by the retention horizon. *)
    let first = max (t.current_slot + 1) (slot - retain) in
    for i = first to slot do
      Hashtbl.replace t.boundaries i
        { b_time = t.epoch +. (float_of_int i *. t.slot_s); b_samples = snap }
    done;
    t.current_slot <- slot;
    Hashtbl.iter
      (fun i _ -> if i < slot - retain then Hashtbl.remove t.boundaries i)
      (Hashtbl.copy t.boundaries)
  end

let tick t = Mutex.protect t.mu (fun () -> tick_locked t)

type windowed_counter = { wc_name : string; wc_delta : int; wc_rate : float }

type windowed_histogram = {
  wh_name : string;
  wh_count : int;
  wh_sum : float;
  wh_p50 : float;
  wh_p95 : float;
  wh_p99 : float;
}

type window = {
  w_slots : int;
  w_span_s : float;
  w_counters : windowed_counter list;
  w_histograms : windowed_histogram list;
}

(* Linear interpolation inside the winning bucket, Prometheus-style;
   overflow observations clamp to the last finite bound. *)
let quantile (buckets : (float * int) array) ~count q =
  if count <= 0 then 0.0
  else begin
    let target = q *. float_of_int count in
    let n = Array.length buckets in
    let rec go i cum lower =
      if i >= n then if n = 0 then 0.0 else fst buckets.(n - 1)
      else begin
        let b, c = buckets.(i) in
        let cum' = cum + c in
        if c > 0 && float_of_int cum' >= target then
          lower +. ((b -. lower) *. ((target -. float_of_int cum) /. float_of_int c))
        else go (i + 1) cum' b
      end
    in
    go 0 0 0.0
  end

let histogram_delta (newer : Metrics.histogram_snapshot) older =
  match older with
  | None -> newer
  | Some (o : Metrics.histogram_snapshot) ->
    let buckets =
      Array.mapi
        (fun i (bound, n) ->
          let before = if i < Array.length o.Metrics.buckets then snd o.Metrics.buckets.(i) else 0 in
          (bound, max 0 (n - before)))
        newer.Metrics.buckets
    in
    {
      Metrics.buckets;
      overflow = max 0 (newer.Metrics.overflow - o.Metrics.overflow);
      count = max 0 (newer.Metrics.count - o.Metrics.count);
      sum = Float.max 0.0 (newer.Metrics.sum -. o.Metrics.sum);
    }

let window t ~slots =
  if slots < 1 then invalid_arg "Rollup.window: slots must be >= 1";
  Mutex.protect t.mu (fun () ->
      tick_locked t;
      let nowv = t.now () in
      let target = max 0 (t.current_slot - slots + 1) in
      let rec find i =
        if i > t.current_slot then None
        else
          match Hashtbl.find_opt t.boundaries i with
          | Some b -> Some b
          | None -> find (i + 1)
      in
      let base =
        match find target with
        | Some b -> b
        | None -> { b_time = t.epoch; b_samples = [] }
      in
      let span = Float.max (nowv -. base.b_time) 1e-9 in
      let live = Metrics.snapshot () in
      let counters =
        List.map
          (fun (name, delta) ->
            { wc_name = name; wc_delta = delta; wc_rate = float_of_int delta /. span })
          (counter_deltas live base.b_samples)
      in
      let histograms =
        List.filter_map
          (fun (name, s) ->
            match s with
            | Metrics.Histogram_sample h ->
              let older =
                match List.assoc_opt name base.b_samples with
                | Some (Metrics.Histogram_sample o) -> Some o
                | _ -> None
              in
              let d = histogram_delta h older in
              Some
                {
                  wh_name = name;
                  wh_count = d.Metrics.count;
                  wh_sum = d.Metrics.sum;
                  wh_p50 = quantile d.Metrics.buckets ~count:d.Metrics.count 0.50;
                  wh_p95 = quantile d.Metrics.buckets ~count:d.Metrics.count 0.95;
                  wh_p99 = quantile d.Metrics.buckets ~count:d.Metrics.count 0.99;
                }
            | _ -> None)
          live
      in
      {
        w_slots = slots;
        w_span_s = span;
        w_counters = counters;
        w_histograms = histograms;
      })

let ewma t =
  Mutex.protect t.mu (fun () ->
      tick_locked t;
      Hashtbl.fold (fun name rate acc -> (name, rate) :: acc) t.ewma []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let slot_seconds t = t.slot_s

(* Process-global instance with one-minute slots, created on first use so
   processes that never expose windows pay nothing. *)
let global_mu = Mutex.create ()
let global_ref : t option ref = ref None

let global () =
  Mutex.protect global_mu (fun () ->
      match !global_ref with
      | Some t -> t
      | None ->
        let t = create () in
        global_ref := Some t;
        t)
