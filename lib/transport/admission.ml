(* Per-session resource budgets, enforced before any Paillier work.

   Every quantity checked here is public in the paper's model (series
   lengths, dimensions, frame sizes), so a rejection reveals nothing a
   passive observer could not already compute — see SECURITY.md.  The
   checks are pure integer comparisons on the clean path, and limits an
   honest session never reaches leave its transcript unchanged
   (test/test_overload.ml). *)

type limits = {
  max_cells : int option;
  max_series_len : int option;
  max_dim : int option;
  max_session_bytes : int option;
  max_session_frames : int option;
}

let unlimited =
  {
    max_cells = None;
    max_series_len = None;
    max_dim = None;
    max_session_bytes = None;
    max_session_frames = None;
  }

type verdict =
  | Admit
  | Reject of { quota : string; limit : int; requested : int }

(* Mutable per-session ledger.  Sessions are served by a single thread
   (Server_loop is thread-per-session), so no locking is needed. *)
type t = {
  limits : limits;
  mutable declared_len : int option;  (* from the Hello spec, if any *)
  mutable declared_dim : int option;
  mutable query_cells : int option;  (* open catalog-query allowance *)
  mutable cells_spent_min : int;  (* cumulative extreme instances, per kind *)
  mutable cells_spent_max : int;
  mutable bytes_spent : int;
  mutable frames_spent : int;
}

let create limits =
  {
    limits;
    declared_len = None;
    declared_dim = None;
    query_cells = None;
    cells_spent_min = 0;
    cells_spent_max = 0;
    bytes_spent = 0;
    frames_spent = 0;
  }

let m_rejects = Ppst_telemetry.Metrics.counter "server.quota.rejects"

let check name limit requested =
  match limit with
  | Some l when requested > l ->
    Ppst_telemetry.Metrics.incr m_rejects;
    Reject { quota = name; limit = l; requested }
  | _ -> Admit

let ( &&& ) a b = match a with Admit -> b () | Reject _ -> a

(* Admission at Hello time: the declared series length and dimension
   against the caps, and the implied DP matrix size [declared_len *
   server_len] against the cell budget.  [server_len] is the length of
   the server's active record — for multi-record catalogs the longest
   record, so a grant here is valid for any later [Select_request]. *)
let declare t ~(spec : Message.spec) ~server_len =
  check "series-len" t.limits.max_series_len spec.series_len
  &&& fun () ->
  check "dim" t.limits.max_dim spec.dimension
  &&& fun () ->
  let cells = spec.series_len * server_len in
  match check "cells" t.limits.max_cells cells with
  | Admit ->
    t.declared_len <- Some spec.series_len;
    t.declared_dim <- Some spec.dimension;
    Admit
  | r -> r

(* Re-plan after [Select_request]: the cell ledger restarts against the
   newly active record (a catalog scan evaluates one matrix per record,
   not one giant cumulative matrix).  Any open catalog-query allowance
   closes too — the per-survivor exact stage is billed per record. *)
let reselect t =
  t.cells_spent_min <- 0;
  t.cells_spent_max <- 0;
  t.query_cells <- None

(* Admission at Query_submit time: a catalog pruning round spends one
   extreme instance per (candidate, segment, dimension) plus one verdict
   decryption per candidate — all public quantities.  The total is
   checked against the cell budget, then recorded as the open allowance
   that later charge_cells calls are held to (instead of the pairwise
   declared m*n budget, which does not describe a 1-vs-N round). *)
let declare_query t ~candidates ~segments =
  if candidates <= 0 || segments <= 0 then
    Reject { quota = "cells"; limit = 0; requested = candidates * segments }
  else
    let dim = match t.declared_dim with Some d -> d | None -> 1 in
    let cells = candidates * ((segments * dim) + 1) in
    match check "cells" t.limits.max_cells cells with
    | Admit ->
      t.cells_spent_min <- 0;
      t.cells_spent_max <- 0;
      t.query_cells <- Some cells;
      Admit
    | r -> r

(* Per-frame byte/frame budgets, charged before the codec runs. *)
let charge_frame t ~bytes =
  t.frames_spent <- t.frames_spent + 1;
  t.bytes_spent <- t.bytes_spent + bytes;
  check "frames" t.limits.max_session_frames t.frames_spent
  &&& fun () -> check "bytes" t.limits.max_session_bytes t.bytes_spent

(* Cell accounting for extreme-selection requests, charged after decode
   but before any decryption.  [kind] separates min from max instances:
   DFD legitimately spends one of each per DP cell, so a shared counter
   would halve the effective budget for honest DFD clients.  When a
   spec was declared, the cumulative spend is also checked against the
   declared m*n budget, so a client cannot under-declare at Hello and
   over-consume later. *)
let charge_cells t ~kind ~count ~server_len =
  let spent =
    match kind with
    | `Min ->
      t.cells_spent_min <- t.cells_spent_min + count;
      t.cells_spent_min
    | `Max ->
      t.cells_spent_max <- t.cells_spent_max + count;
      t.cells_spent_max
  in
  check "cells" t.limits.max_cells spent
  &&& fun () ->
  match t.query_cells with
  | Some allowance ->
    (* inside a declared catalog query: hold the spend to the declared
       query allowance, not the pairwise m*n budget *)
    check "cells" (Some allowance) spent
  | None -> (
    match t.declared_len with
    | None -> Admit
    | Some m -> check "cells" (Some (m * server_len)) spent)

(* Cells implied by a decoded request, before any crypto runs. *)
let cells_of_request (req : Message.request) =
  match req with
  | Min_request _ -> Some (`Min, 1)
  | Max_request _ -> Some (`Max, 1)
  | Batch_min_request sets -> Some (`Min, Array.length sets)
  | Batch_max_request sets -> Some (`Max, Array.length sets)
  | Packed_min_request { counts; _ } -> Some (`Min, Array.length counts)
  | Packed_max_request { counts; _ } -> Some (`Max, Array.length counts)
  (* each verdict is one decryption — priced like a min instance *)
  | Verdict_request blinded -> Some (`Min, Array.length blinded)
  | Hello _ | Phase1_request | Reveal_request _ | Catalog_request
  | Select_request _ | Stats_req | Bye | Resume _ | Health_req
  | Catalog_list_request | Query_submit _ | Metrics_req -> None

let to_reply = function
  | Admit -> None
  | Reject { quota; limit; requested } ->
    Some (Message.Quota_exceeded { quota; limit; requested })

(* Ledger serialization for cross-worker session failover.  Limits are
   configuration (the restoring worker supplies its own); only the seven
   mutable spend/declaration fields travel.  An optional int is encoded
   presence-prefixed so 0 and absent stay distinct. *)

let put_opt_int w = function
  | None -> Wire.put_u8 w 0
  | Some v ->
    Wire.put_u8 w 1;
    Wire.put_u32 w v

let get_opt_int r =
  match Wire.get_u8 r with
  | 0 -> None
  | 1 -> Some (Wire.get_u32 r)
  | b -> raise (Wire.Malformed (Printf.sprintf "Admission: bad option tag %d" b))

let export t =
  let w = Wire.writer () in
  put_opt_int w t.declared_len;
  put_opt_int w t.declared_dim;
  put_opt_int w t.query_cells;
  Wire.put_u32 w t.cells_spent_min;
  Wire.put_u32 w t.cells_spent_max;
  Wire.put_u32 w t.bytes_spent;
  Wire.put_u32 w t.frames_spent;
  Wire.contents w

let import limits blob =
  let r = Wire.reader blob in
  let t = create limits in
  t.declared_len <- get_opt_int r;
  t.declared_dim <- get_opt_int r;
  t.query_cells <- get_opt_int r;
  t.cells_spent_min <- Wire.get_u32 r;
  t.cells_spent_max <- Wire.get_u32 r;
  t.bytes_spent <- Wire.get_u32 r;
  t.frames_spent <- Wire.get_u32 r;
  Wire.expect_end r;
  t
