type phase = Phase1 | Phase2 | Phase3

type ops = {
  mutable encryptions : int;
  mutable decryptions : int;
  mutable homomorphic : int;
}

let empty_ops () = { encryptions = 0; decryptions = 0; homomorphic = 0 }

type t = {
  client : ops;
  server : ops;
  client_time : float array;
  server_time : float array;
  mutable client_offline : float;
  mutable jobs : int;
  mutable pool_misses : int;
}

let create () =
  {
    client = empty_ops ();
    server = empty_ops ();
    client_time = Array.make 3 0.0;
    server_time = Array.make 3 0.0;
    client_offline = 0.0;
    jobs = 1;
    pool_misses = 0;
  }

let index = function Phase1 -> 0 | Phase2 -> 1 | Phase3 -> 2

let client_ops t = t.client
let server_ops t = t.server

let add_client_time t phase dt = t.client_time.(index phase) <- t.client_time.(index phase) +. dt
let add_server_time t phase dt = t.server_time.(index phase) <- t.server_time.(index phase) +. dt

let client_seconds t phase = t.client_time.(index phase)
let server_seconds t phase = t.server_time.(index phase)

let sum = Array.fold_left ( +. ) 0.0

let add_client_offline t dt = t.client_offline <- t.client_offline +. dt
let client_offline_seconds t = t.client_offline

let set_jobs t jobs = t.jobs <- jobs

let set_pool_misses t misses = t.pool_misses <- misses
let pool_misses t = t.pool_misses

let client_total_seconds t = sum t.client_time
let server_total_seconds t = sum t.server_time

let total_seconds t =
  client_total_seconds t +. server_total_seconds t +. t.client_offline

let pp_ops fmt o =
  Format.fprintf fmt "enc=%d dec=%d hom=%d" o.encryptions o.decryptions o.homomorphic

let pp fmt t =
  Format.fprintf fmt
    "@[<v>client: %a, online %.3fs (p1 %.3f, p2 %.3f, p3 %.3f), offline %.3fs, pool misses %d@,server: %a, time %.3fs (p1 %.3f, p2 %.3f, p3 %.3f)@,jobs: %d@]"
    pp_ops t.client (client_total_seconds t) t.client_time.(0) t.client_time.(1)
    t.client_time.(2) t.client_offline t.pool_misses pp_ops t.server
    (server_total_seconds t) t.server_time.(0) t.server_time.(1) t.server_time.(2)
    t.jobs
