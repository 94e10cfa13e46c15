(* Process-wide registry of named counters, gauges and fixed-bucket
   histograms.  Thread-safety under Domains comes from an atomic per
   counter and one mutex per gauge or histogram (update hot paths never
   contend on a global lock); the registry itself is guarded by [reg_mu]
   only during get-or-create and snapshot.

   The same leakage discipline as Telemetry applies: a metric can only
   carry numbers, and its name is a static string chosen at the
   instrumentation site. *)

type counter = int Atomic.t
type gauge = { g_mu : Mutex.t; mutable g_value : float }

type histogram = {
  h_mu : Mutex.t;
  bounds : float array;  (* ascending upper bucket bounds; +inf implicit *)
  counts : int array;  (* length = Array.length bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_mu = Mutex.create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let get_or_create name make match_existing =
  Mutex.protect reg_mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing -> begin
        match match_existing existing with
        | Some m -> m
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name existing))
      end
      | None ->
        let m = make () in
        m)

let counter name =
  get_or_create name
    (fun () ->
      let c = Atomic.make 0 in
      Hashtbl.add registry name (Counter c);
      c)
    (function Counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value = Atomic.get

let gauge name =
  get_or_create name
    (fun () ->
      let g = { g_mu = Mutex.create (); g_value = 0.0 } in
      Hashtbl.add registry name (Gauge g);
      g)
    (function Gauge g -> Some g | _ -> None)

let gauge_set g v =
  Mutex.lock g.g_mu;
  g.g_value <- v;
  Mutex.unlock g.g_mu

let gauge_add g v =
  Mutex.lock g.g_mu;
  g.g_value <- g.g_value +. v;
  Mutex.unlock g.g_mu

let gauge_value g =
  Mutex.lock g.g_mu;
  let v = g.g_value in
  Mutex.unlock g.g_mu;
  v

let default_buckets = [| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let histogram ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must be ascending")
    buckets;
  get_or_create name
    (fun () ->
      let h =
        {
          h_mu = Mutex.create ();
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_count = 0;
          h_sum = 0.0;
        }
      in
      Hashtbl.add registry name (Histogram h);
      h)
    (function Histogram h -> Some h | _ -> None)

(* First bucket whose bound is >= v ("less than or equal" semantics, as
   in Prometheus [le] buckets); past the last bound, the overflow slot. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  Mutex.lock h.h_mu;
  let i = bucket_index h.bounds v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  Mutex.unlock h.h_mu

type histogram_snapshot = {
  buckets : (float * int) array;  (* (upper bound, count in bucket) *)
  overflow : int;
  count : int;
  sum : float;
}

let histogram_snapshot h =
  Mutex.lock h.h_mu;
  let snap =
    {
      buckets = Array.mapi (fun i b -> (b, h.counts.(i))) h.bounds;
      overflow = h.counts.(Array.length h.bounds);
      count = h.h_count;
      sum = h.h_sum;
    }
  in
  Mutex.unlock h.h_mu;
  snap

(* --- introspection -------------------------------------------------------- *)

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of histogram_snapshot

let snapshot () =
  let items =
    Mutex.protect reg_mu (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  let items = List.sort (fun (a, _) (b, _) -> String.compare a b) items in
  List.map
    (fun (name, m) ->
      let s =
        match m with
        | Counter c -> Counter_sample (counter_value c)
        | Gauge g -> Gauge_sample (gauge_value g)
        | Histogram h -> Histogram_sample (histogram_snapshot h)
      in
      (name, s))
    items

(* A supervised worker's drain report: the scalar part of the registry. *)
let scalars () =
  List.filter_map
    (fun (name, sample) ->
      match sample with
      | Counter_sample v -> Some (name, float_of_int v)
      | Gauge_sample v -> Some (name, v)
      | Histogram_sample _ -> None)
    (snapshot ())
