(* A deliberately small Domain pool: one work queue, [size - 1] resident
   workers, and the caller as the remaining lane.  Tasks are closures
   that stash their own results; [map_array] submits one closure per
   contiguous chunk and runs the first chunk itself, so a pool is never
   idle while the caller blocks. *)

module Metrics = Ppst_telemetry.Metrics

(* Pool observability: how large the fan-outs are, how long a submitted
   chunk waits before a worker picks it up, and the queue depth at each
   submit.  Pure observation — no effect on chunking or task order, so
   determinism of seeded runs is untouched. *)
let m_batch_items =
  Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
    "pool.batch.items"

let m_task_wait =
  Metrics.histogram
    ~buckets:[| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1. |]
    "pool.task.wait_s"

let m_queue_depth = Metrics.gauge "pool.queue.depth"

type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

let worker_loop t =
  let rec next () =
    Mutex.lock t.lock;
    let rec wait () =
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.lock;
          task ();
          next ()
      | None ->
          if t.stopped then Mutex.unlock t.lock
          else (
            Condition.wait t.work_available t.lock;
            wait ())
    in
    wait ()
  in
  next ()

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    {
      size;
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      stopped = false;
      domains = [];
    }
  in
  if size > 1 then
    t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.size
let sequential = create 1

let shutdown t =
  if t.domains <> [] then begin
    Mutex.lock t.lock;
    t.stopped <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let submit t task =
  Mutex.lock t.lock;
  Queue.add task t.queue;
  Metrics.gauge_set m_queue_depth (float_of_int (Queue.length t.queue));
  Condition.signal t.work_available;
  Mutex.unlock t.lock

(* Chunk [c] of [cc] over [len] items: the same contiguous split
   regardless of timing, so partitioning is deterministic. *)
let chunk_bounds ~len ~chunk_count c =
  (c * len / chunk_count, (c + 1) * len / chunk_count)

let map_array t f arr =
  let len = Array.length arr in
  if t.size = 1 || len <= 1 || t.domains = [] then Array.map f arr
  else begin
    Metrics.observe m_batch_items (float_of_int len);
    let chunk_count = min t.size len in
    let results : ('b array, exn * Printexc.raw_backtrace) result option array =
      Array.make chunk_count None
    in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    let remaining = ref (chunk_count - 1) in
    let run_chunk c =
      let lo, hi = chunk_bounds ~len ~chunk_count c in
      match Array.init (hi - lo) (fun i -> f arr.(lo + i)) with
      | chunk -> results.(c) <- Some (Ok chunk)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          results.(c) <- Some (Error (e, bt))
    in
    for c = 1 to chunk_count - 1 do
      let submitted_at = Ppst_telemetry.Telemetry.now () in
      submit t (fun () ->
          Metrics.observe m_task_wait
            (Ppst_telemetry.Telemetry.now () -. submitted_at);
          run_chunk c;
          Mutex.lock done_lock;
          decr remaining;
          if !remaining = 0 then Condition.signal done_cond;
          Mutex.unlock done_lock)
    done;
    run_chunk 0;
    Mutex.lock done_lock;
    while !remaining > 0 do
      Condition.wait done_cond done_lock
    done;
    Mutex.unlock done_lock;
    let chunks =
      Array.map
        (function
          | Some (Ok chunk) -> chunk
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | None -> assert false)
        results
    in
    Array.concat (Array.to_list chunks)
  end

let map t f l = Array.to_list (map_array t f (Array.of_list l))
