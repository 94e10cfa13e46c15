(* Bounded TTL map from resume token to parked session state.  The
   clock is injectable so tests can prove eviction by advancing time
   instead of sleeping. *)

type 'a entry = { expires_at : float; value : 'a }

type 'a t = {
  capacity : int;
  ttl_s : float;
  now : unit -> float;
  mu : Mutex.t;
  entries : (string, 'a entry) Hashtbl.t;
  mutable expired_total : int;
  mutable evicted_total : int;
}

let create ?now ~capacity ~ttl_s () =
  if capacity < 1 then invalid_arg "Resume_table.create: capacity must be >= 1";
  if ttl_s <= 0.0 then invalid_arg "Resume_table.create: ttl must be positive";
  let now = match now with Some f -> f | None -> Monoclock.now in
  {
    capacity;
    ttl_s;
    now;
    mu = Mutex.create ();
    entries = Hashtbl.create 64;
    expired_total = 0;
    evicted_total = 0;
  }

(* Callers hold [t.mu]. *)
let sweep_locked t =
  let now = t.now () in
  let dead =
    Hashtbl.fold
      (fun token e acc -> if e.expires_at <= now then token :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) dead;
  let n = List.length dead in
  t.expired_total <- t.expired_total + n;
  n

(* Capacity pressure evicts the entry closest to expiry: it is the one
   a client is least likely to still come back for. *)
let evict_oldest_locked t =
  let victim =
    Hashtbl.fold
      (fun token e acc ->
        match acc with
        | Some (_, best) when best.expires_at <= e.expires_at -> acc
        | _ -> Some (token, e))
      t.entries None
  in
  match victim with
  | None -> ()
  | Some (token, _) ->
    Hashtbl.remove t.entries token;
    t.evicted_total <- t.evicted_total + 1

let put t token value =
  Mutex.protect t.mu (fun () ->
      ignore (sweep_locked t);
      Hashtbl.remove t.entries token;
      if Hashtbl.length t.entries >= t.capacity then evict_oldest_locked t;
      Hashtbl.replace t.entries token
        { expires_at = t.now () +. t.ttl_s; value })

let take t token =
  Mutex.protect t.mu (fun () ->
      ignore (sweep_locked t);
      match Hashtbl.find_opt t.entries token with
      | None -> None
      | Some e ->
        Hashtbl.remove t.entries token;
        Some e.value)

let sweep t = Mutex.protect t.mu (fun () -> sweep_locked t)
let size t = Mutex.protect t.mu (fun () -> Hashtbl.length t.entries)
let expired_total t = Mutex.protect t.mu (fun () -> t.expired_total)
let evicted_total t = Mutex.protect t.mu (fun () -> t.evicted_total)
