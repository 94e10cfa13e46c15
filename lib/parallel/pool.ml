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

(* Background tasks — genuinely offline work (randomness-pool
   production) that should overlap the caller's online phase rather than
   share a pool's work queue — run on one process-wide Domain, spawned on
   first use and kept for the life of the process: a Domain per task
   grew the resident set of a process running session after session.
   Tasks run one at a time in submission order, so a task must never
   wait on a task queued behind it; each randomness producer only pushes
   into its own pool. *)
let bg_lock = Mutex.create ()
let bg_queued = Condition.create ()
let bg_finished = Condition.create ()
let bg_queue : (unit -> unit) Queue.t = Queue.create ()
let bg_started = ref false

let rec bg_loop () =
  Mutex.lock bg_lock;
  while Queue.is_empty bg_queue do
    Condition.wait bg_queued bg_lock
  done;
  let task = Queue.take bg_queue in
  Mutex.unlock bg_lock;
  task ();
  bg_loop ()

type 'a background = ('a, exn * Printexc.raw_backtrace) result option ref

let background f : 'a background =
  let outcome = ref None in
  let task () =
    let r =
      match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock bg_lock;
    outcome := Some r;
    Condition.broadcast bg_finished;
    Mutex.unlock bg_lock
  in
  Mutex.lock bg_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock bg_lock)
    (fun () ->
      (* spawn before queueing: if the spawn fails, nothing is owed *)
      if not !bg_started then begin
        ignore (Domain.spawn bg_loop : unit Domain.t);
        bg_started := true
      end;
      Queue.add task bg_queue;
      Condition.signal bg_queued);
  outcome

let await (outcome : 'a background) : 'a =
  Mutex.lock bg_lock;
  while Option.is_none !outcome do
    Condition.wait bg_finished bg_lock
  done;
  let r = Option.get !outcome in
  Mutex.unlock bg_lock;
  match r with Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt
