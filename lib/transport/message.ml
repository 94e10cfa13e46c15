open Ppst_bigint

type spec = { series_len : int; dimension : int }

type request =
  | Hello of { flags : int; spec : spec option }
  | Phase1_request
  | Min_request of Bigint.t array
  | Max_request of Bigint.t array
  | Reveal_request of Bigint.t
  | Catalog_request
  | Select_request of int
  | Batch_min_request of Bigint.t array array
  | Batch_max_request of Bigint.t array array
  | Packed_min_request of { slot_bits : int; counts : int array; packed : Bigint.t array }
  | Packed_max_request of { slot_bits : int; counts : int array; packed : Bigint.t array }
  | Stats_req
  | Bye
  | Resume of { token : string; client_rounds : int; flags : int }
  | Health_req
  | Catalog_list_request
  | Query_submit of { segments : int; band : int option; indices : int array }
  | Verdict_request of Bigint.t array
  | Metrics_req

type phase1_element = { sum_sq : Bigint.t; coords : Bigint.t array }
type sketch = { lo : Bigint.t array; hi : Bigint.t array }

type reply =
  | Welcome of {
      n : Bigint.t;
      key_bits : int;
      series_length : int;
      dimension : int;
      max_value : int;
      flags : int;
      resume_token : string;
    }
  | Phase1_reply of phase1_element array
  | Cipher_reply of Bigint.t
  | Reveal_reply of Bigint.t
  | Catalog_reply of int array
  | Select_ack of int
  | Batch_cipher_reply of Bigint.t array
  | Bye_ack of { server_seconds : float }
  | Stats_reply of string
  | Busy of { retry_after_s : float }
  | Error_reply of string
  | Resume_ack of { server_rounds : int; reply : string; flags : int }
  | Resume_reject of { reason : string }
  | Quota_exceeded of { quota : string; limit : int; requested : int }
  | Health_reply of {
      status : int;
      active : int;
      capacity : int;
      retry_after_s : float;
    }
  | Catalog_list_reply of { ids : string array; lengths : int array }
  | Query_sketch of sketch array
  | Verdict_reply of bool array
  | Metrics_reply of string

type t = Request of request | Reply of reply

(* Frame tags.  Requests are 0x0*, replies 0x8*. *)
let tag_hello = 0x01
let tag_phase1_request = 0x02
let tag_min_request = 0x03
let tag_max_request = 0x04
let tag_reveal_request = 0x05
let tag_bye = 0x06
let tag_catalog_request = 0x07
let tag_select_request = 0x08
let tag_batch_min_request = 0x09
let tag_batch_max_request = 0x0a
let tag_stats_request = 0x0b
let tag_resume = 0x0c
let tag_health_request = 0x0d
let tag_packed_min_request = 0x0e
let tag_packed_max_request = 0x0f
let tag_catalog_list_request = 0x10
let tag_query_submit = 0x11
let tag_verdict_request = 0x12
let tag_metrics_request = 0x13
let tag_welcome = 0x81
let tag_phase1_reply = 0x82
let tag_cipher_reply = 0x83
let tag_reveal_reply = 0x84
let tag_bye_ack = 0x85
let tag_error_reply = 0x86
let tag_catalog_reply = 0x87
let tag_select_ack = 0x88
let tag_batch_cipher_reply = 0x89
let tag_stats_reply = 0x8a
let tag_resume_ack = 0x8b
let tag_resume_reject = 0x8c
let tag_quota_exceeded = 0x8d
let tag_busy = 0x8e
let tag_health_reply = 0x8f
let tag_catalog_list_reply = 0x90
let tag_query_sketch = 0x91
let tag_verdict_reply = 0x92
let tag_metrics_reply = 0x93

(* The name a trace table prints for each request tag. *)
let request_names =
  [
    (tag_hello, "hello");
    (tag_phase1_request, "phase1");
    (tag_min_request, "min");
    (tag_max_request, "max");
    (tag_reveal_request, "reveal");
    (tag_bye, "bye");
    (tag_catalog_request, "catalog");
    (tag_select_request, "select");
    (tag_batch_min_request, "batch-min");
    (tag_batch_max_request, "batch-max");
    (tag_stats_request, "stats");
    (tag_resume, "resume");
    (tag_health_request, "health");
    (tag_packed_min_request, "packed-min");
    (tag_packed_max_request, "packed-max");
    (tag_catalog_list_request, "catalog-list");
    (tag_query_submit, "query-submit");
    (tag_verdict_request, "verdict");
    (tag_metrics_request, "metrics");
  ]

let request_name tag =
  match List.assoc_opt tag request_names with
  | Some name -> name
  | None -> Printf.sprintf "0x%02x" tag

(* Capability bits carried in [Hello.flags] (the client's offer) and
   echoed back in [Welcome.flags] (the server's grant = offer AND
   support).  A flags value of 0 encodes byte-identically to the PR 3
   wire format, which is the whole interop story (PROTOCOL.md s.9). *)
let flag_crc32 = 0x01
let flag_resume = 0x02

(* [flag_spec] marks the presence of a resource spec after the flags
   byte in [Hello]: the client declares its series length and dimension
   up front so the server can run admission checks (m*n cell budget,
   length/dimension caps) before a single Paillier operation.  The bit
   is derived from [spec] at encode time, never set by hand. *)
let flag_spec = 0x04

(* [flag_packing] grants the plaintext-packing extension: the client may
   send [Packed_min_request]/[Packed_max_request] frames carrying many
   masked candidates per ciphertext.  Purely a throughput optimisation —
   the candidates are the same masked quantities the unpacked frames
   carry (SECURITY.md s.Packing). *)
let flag_packing = 0x08

(* [flag_catalog] grants the 1-vs-N catalog extension: catalog-list
   (id+length enumeration), query-submit (encrypted per-segment
   lower-bound sketches of the selected candidates) and the blinded
   candidate-verdict round.  Like [flag_packing] this is a pure
   capability — a flags-0 session never sees the new tags and its
   transcript stays byte-identical. *)
let flag_catalog = 0x10

(* [flag_metrics] grants the observability extension: [Metrics_req]
   returns the OpenMetrics text page (registry + windowed rollups) the
   sidecar HTTP endpoint serves.  Pure capability — the page carries the
   same aggregate-only surface as [Stats_reply], and a session that never
   offers the bit has a byte-identical transcript. *)
let flag_metrics = 0x20

let encode t =
  let w = Wire.writer () in
  (match t with
   | Request (Hello { flags; spec }) ->
     Wire.put_u8 w tag_hello;
     let flags =
       match spec with
       | Some _ -> flags lor flag_spec
       | None -> flags land lnot flag_spec
     in
     (* flags = 0 stays a bare tag byte: old peers decode it unchanged *)
     if flags <> 0 then Wire.put_u8 w flags;
     (match spec with
      | None -> ()
      | Some { series_len; dimension } ->
        Wire.put_u32 w series_len;
        Wire.put_u32 w dimension)
   | Request Phase1_request -> Wire.put_u8 w tag_phase1_request
   | Request (Min_request candidates) ->
     Wire.put_u8 w tag_min_request;
     Wire.put_bigint_array w candidates
   | Request (Max_request candidates) ->
     Wire.put_u8 w tag_max_request;
     Wire.put_bigint_array w candidates
   | Request (Reveal_request c) ->
     Wire.put_u8 w tag_reveal_request;
     Wire.put_bigint w c
   | Request Catalog_request -> Wire.put_u8 w tag_catalog_request
   | Request (Select_request i) ->
     Wire.put_u8 w tag_select_request;
     Wire.put_u32 w i
   | Request (Batch_min_request sets) ->
     Wire.put_u8 w tag_batch_min_request;
     Wire.put_u32 w (Array.length sets);
     Array.iter (Wire.put_bigint_array w) sets
   | Request (Batch_max_request sets) ->
     Wire.put_u8 w tag_batch_max_request;
     Wire.put_u32 w (Array.length sets);
     Array.iter (Wire.put_bigint_array w) sets
   | Request (Packed_min_request { slot_bits; counts; packed }) ->
     Wire.put_u8 w tag_packed_min_request;
     Wire.put_u8 w slot_bits;
     Wire.put_u32 w (Array.length counts);
     Array.iter (Wire.put_u32 w) counts;
     Wire.put_bigint_array w packed
   | Request (Packed_max_request { slot_bits; counts; packed }) ->
     Wire.put_u8 w tag_packed_max_request;
     Wire.put_u8 w slot_bits;
     Wire.put_u32 w (Array.length counts);
     Array.iter (Wire.put_u32 w) counts;
     Wire.put_bigint_array w packed
   | Request Stats_req -> Wire.put_u8 w tag_stats_request
   | Request Health_req -> Wire.put_u8 w tag_health_request
   | Request Catalog_list_request -> Wire.put_u8 w tag_catalog_list_request
   | Request (Query_submit { segments; band; indices }) ->
     Wire.put_u8 w tag_query_submit;
     Wire.put_u32 w segments;
     (* band + 1, so 0 encodes "unbanded" *)
     Wire.put_u32 w (match band with None -> 0 | Some b -> b + 1);
     Wire.put_u32 w (Array.length indices);
     Array.iter (Wire.put_u32 w) indices
   | Request (Verdict_request blinded) ->
     Wire.put_u8 w tag_verdict_request;
     Wire.put_bigint_array w blinded
   | Request Metrics_req -> Wire.put_u8 w tag_metrics_request
   | Request Bye -> Wire.put_u8 w tag_bye
   | Request (Resume { token; client_rounds; flags }) ->
     Wire.put_u8 w tag_resume;
     Wire.put_bytes w token;
     Wire.put_u32 w client_rounds;
     Wire.put_u8 w flags
   | Reply (Welcome { n; key_bits; series_length; dimension; max_value; flags; resume_token }) ->
     Wire.put_u8 w tag_welcome;
     Wire.put_bigint w n;
     Wire.put_u32 w key_bits;
     Wire.put_u32 w series_length;
     Wire.put_u32 w dimension;
     Wire.put_u32 w max_value;
     (* capability extension: absent entirely when nothing is granted,
        so a PR 3 peer sees exactly the frame it always saw *)
     if flags <> 0 || resume_token <> "" then begin
       Wire.put_u8 w flags;
       Wire.put_bytes w resume_token
     end
   | Reply (Phase1_reply elements) ->
     Wire.put_u8 w tag_phase1_reply;
     Wire.put_u32 w (Array.length elements);
     Array.iter
       (fun { sum_sq; coords } ->
         Wire.put_bigint w sum_sq;
         Wire.put_bigint_array w coords)
       elements
   | Reply (Cipher_reply c) ->
     Wire.put_u8 w tag_cipher_reply;
     Wire.put_bigint w c
   | Reply (Reveal_reply v) ->
     Wire.put_u8 w tag_reveal_reply;
     Wire.put_bigint w v
   | Reply (Catalog_reply lengths) ->
     Wire.put_u8 w tag_catalog_reply;
     Wire.put_u32 w (Array.length lengths);
     Array.iter (Wire.put_u32 w) lengths
   | Reply (Select_ack i) ->
     Wire.put_u8 w tag_select_ack;
     Wire.put_u32 w i
   | Reply (Batch_cipher_reply replies) ->
     Wire.put_u8 w tag_batch_cipher_reply;
     Wire.put_bigint_array w replies
   | Reply (Bye_ack { server_seconds }) ->
     Wire.put_u8 w tag_bye_ack;
     Wire.put_f64 w server_seconds
   | Reply (Stats_reply text) ->
     Wire.put_u8 w tag_stats_reply;
     Wire.put_bytes w text
   | Reply (Metrics_reply text) ->
     Wire.put_u8 w tag_metrics_reply;
     Wire.put_bytes w text
   | Reply (Busy { retry_after_s }) ->
     Wire.put_u8 w tag_busy;
     Wire.put_f64 w retry_after_s
   | Reply (Error_reply msg) ->
     Wire.put_u8 w tag_error_reply;
     Wire.put_bytes w msg
   | Reply (Resume_ack { server_rounds; reply; flags }) ->
     Wire.put_u8 w tag_resume_ack;
     Wire.put_u32 w server_rounds;
     Wire.put_bytes w reply;
     Wire.put_u8 w flags
   | Reply (Resume_reject { reason }) ->
     Wire.put_u8 w tag_resume_reject;
     Wire.put_bytes w reason
   | Reply (Quota_exceeded { quota; limit; requested }) ->
     Wire.put_u8 w tag_quota_exceeded;
     Wire.put_bytes w quota;
     Wire.put_u32 w limit;
     Wire.put_u32 w requested
   | Reply (Health_reply { status; active; capacity; retry_after_s }) ->
     Wire.put_u8 w tag_health_reply;
     Wire.put_u8 w status;
     Wire.put_u32 w active;
     Wire.put_u32 w capacity;
     Wire.put_f64 w retry_after_s
   | Reply (Catalog_list_reply { ids; lengths }) ->
     Wire.put_u8 w tag_catalog_list_reply;
     Wire.put_u32 w (Array.length ids);
     Array.iter (Wire.put_bytes w) ids;
     Array.iter (Wire.put_u32 w) lengths
   | Reply (Query_sketch sketches) ->
     Wire.put_u8 w tag_query_sketch;
     Wire.put_u32 w (Array.length sketches);
     Array.iter
       (fun { lo; hi } ->
         Wire.put_bigint_array w lo;
         Wire.put_bigint_array w hi)
       sketches
   | Reply (Verdict_reply survive) ->
     Wire.put_u8 w tag_verdict_reply;
     Wire.put_u32 w (Array.length survive);
     Array.iter (fun b -> Wire.put_u8 w (if b then 1 else 0)) survive);
  Wire.contents w

let decode s =
  let r = Wire.reader s in
  let tag = Wire.get_u8 r in
  let msg =
    if tag = tag_hello then
      let flags = if Wire.remaining r > 0 then Wire.get_u8 r else 0 in
      let spec =
        if flags land flag_spec <> 0 then begin
          let series_len = Wire.get_u32 r in
          let dimension = Wire.get_u32 r in
          Some { series_len; dimension }
        end
        else None
      in
      Request (Hello { flags; spec })
    else if tag = tag_phase1_request then Request Phase1_request
    else if tag = tag_min_request then Request (Min_request (Wire.get_bigint_array r))
    else if tag = tag_max_request then Request (Max_request (Wire.get_bigint_array r))
    else if tag = tag_reveal_request then Request (Reveal_request (Wire.get_bigint r))
    else if tag = tag_catalog_request then Request Catalog_request
    else if tag = tag_select_request then Request (Select_request (Wire.get_u32 r))
    else if tag = tag_batch_min_request || tag = tag_batch_max_request then begin
      let count = Wire.get_u32 r in
      if count * 6 > String.length s then
        raise (Wire.Malformed "batch count exceeds frame capacity");
      let sets = Array.init count (fun _ -> Wire.get_bigint_array r) in
      if tag = tag_batch_min_request then Request (Batch_min_request sets)
      else Request (Batch_max_request sets)
    end
    else if tag = tag_packed_min_request || tag = tag_packed_max_request then begin
      let slot_bits = Wire.get_u8 r in
      if slot_bits = 0 then raise (Wire.Malformed "packed slot_bits must be positive");
      let count = Wire.get_u32 r in
      if count * 4 > String.length s then
        raise (Wire.Malformed "packed instance count exceeds frame capacity");
      let counts = Array.init count (fun _ -> Wire.get_u32 r) in
      let packed = Wire.get_bigint_array r in
      if tag = tag_packed_min_request then
        Request (Packed_min_request { slot_bits; counts; packed })
      else Request (Packed_max_request { slot_bits; counts; packed })
    end
    else if tag = tag_stats_request then Request Stats_req
    else if tag = tag_health_request then Request Health_req
    else if tag = tag_catalog_list_request then Request Catalog_list_request
    else if tag = tag_query_submit then begin
      let segments = Wire.get_u32 r in
      let band = match Wire.get_u32 r with 0 -> None | b -> Some (b - 1) in
      let count = Wire.get_u32 r in
      if count * 4 > String.length s then
        raise (Wire.Malformed "query index count exceeds frame capacity");
      let indices = Array.init count (fun _ -> Wire.get_u32 r) in
      Request (Query_submit { segments; band; indices })
    end
    else if tag = tag_verdict_request then
      Request (Verdict_request (Wire.get_bigint_array r))
    else if tag = tag_metrics_request then Request Metrics_req
    else if tag = tag_bye then Request Bye
    else if tag = tag_resume then begin
      let token = Wire.get_bytes r in
      let client_rounds = Wire.get_u32 r in
      let flags = Wire.get_u8 r in
      Request (Resume { token; client_rounds; flags })
    end
    else if tag = tag_welcome then begin
      let n = Wire.get_bigint r in
      let key_bits = Wire.get_u32 r in
      let series_length = Wire.get_u32 r in
      let dimension = Wire.get_u32 r in
      let max_value = Wire.get_u32 r in
      let flags, resume_token =
        if Wire.remaining r > 0 then
          let flags = Wire.get_u8 r in
          (flags, Wire.get_bytes r)
        else (0, "")
      in
      Reply (Welcome { n; key_bits; series_length; dimension; max_value; flags; resume_token })
    end
    else if tag = tag_phase1_reply then begin
      let count = Wire.get_u32 r in
      if count * 12 > String.length s then
        raise (Wire.Malformed "phase1 element count exceeds frame capacity");
      let elements =
        Array.init count (fun _ ->
            let sum_sq = Wire.get_bigint r in
            let coords = Wire.get_bigint_array r in
            { sum_sq; coords })
      in
      Reply (Phase1_reply elements)
    end
    else if tag = tag_cipher_reply then Reply (Cipher_reply (Wire.get_bigint r))
    else if tag = tag_reveal_reply then Reply (Reveal_reply (Wire.get_bigint r))
    else if tag = tag_catalog_reply then begin
      let count = Wire.get_u32 r in
      if count * 4 > String.length s then
        raise (Wire.Malformed "catalog count exceeds frame capacity");
      Reply (Catalog_reply (Array.init count (fun _ -> Wire.get_u32 r)))
    end
    else if tag = tag_select_ack then Reply (Select_ack (Wire.get_u32 r))
    else if tag = tag_batch_cipher_reply then
      Reply (Batch_cipher_reply (Wire.get_bigint_array r))
    else if tag = tag_bye_ack then
      Reply (Bye_ack { server_seconds = Wire.get_f64 r })
    else if tag = tag_stats_reply then Reply (Stats_reply (Wire.get_bytes r))
    else if tag = tag_metrics_reply then Reply (Metrics_reply (Wire.get_bytes r))
    else if tag = tag_busy then Reply (Busy { retry_after_s = Wire.get_f64 r })
    else if tag = tag_resume_ack then begin
      let server_rounds = Wire.get_u32 r in
      let reply = Wire.get_bytes r in
      let flags = Wire.get_u8 r in
      Reply (Resume_ack { server_rounds; reply; flags })
    end
    else if tag = tag_resume_reject then
      Reply (Resume_reject { reason = Wire.get_bytes r })
    else if tag = tag_quota_exceeded then begin
      let quota = Wire.get_bytes r in
      let limit = Wire.get_u32 r in
      let requested = Wire.get_u32 r in
      Reply (Quota_exceeded { quota; limit; requested })
    end
    else if tag = tag_health_reply then begin
      let status = Wire.get_u8 r in
      let active = Wire.get_u32 r in
      let capacity = Wire.get_u32 r in
      let retry_after_s = Wire.get_f64 r in
      Reply (Health_reply { status; active; capacity; retry_after_s })
    end
    else if tag = tag_catalog_list_reply then begin
      let count = Wire.get_u32 r in
      if count * 5 > String.length s then
        raise (Wire.Malformed "catalog-list count exceeds frame capacity");
      let ids = Array.init count (fun _ -> Wire.get_bytes r) in
      let lengths = Array.init count (fun _ -> Wire.get_u32 r) in
      Reply (Catalog_list_reply { ids; lengths })
    end
    else if tag = tag_query_sketch then begin
      let count = Wire.get_u32 r in
      if count * 8 > String.length s then
        raise (Wire.Malformed "sketch count exceeds frame capacity");
      let sketches =
        Array.init count (fun _ ->
            let lo = Wire.get_bigint_array r in
            let hi = Wire.get_bigint_array r in
            { lo; hi })
      in
      Reply (Query_sketch sketches)
    end
    else if tag = tag_verdict_reply then begin
      let count = Wire.get_u32 r in
      if count > String.length s then
        raise (Wire.Malformed "verdict count exceeds frame capacity");
      Reply (Verdict_reply (Array.init count (fun _ -> Wire.get_u8 r <> 0)))
    end
    else if tag = tag_error_reply then Reply (Error_reply (Wire.get_bytes r))
    else raise (Wire.Malformed (Printf.sprintf "unknown message tag 0x%02x" tag))
  in
  Wire.expect_end r;
  msg

let describe = function
  | Request (Hello { flags; spec }) -> (
    match spec with
    | None ->
      if flags = 0 then "hello" else Printf.sprintf "hello(flags=0x%02x)" flags
    | Some { series_len; dimension } ->
      Printf.sprintf "hello(flags=0x%02x, m=%d, d=%d)"
        (flags lor flag_spec) series_len dimension)
  | Request Phase1_request -> "phase1-request"
  | Request (Min_request c) -> Printf.sprintf "min-request(%d candidates)" (Array.length c)
  | Request (Max_request c) -> Printf.sprintf "max-request(%d candidates)" (Array.length c)
  | Request (Reveal_request _) -> "reveal-request"
  | Request Catalog_request -> "catalog-request"
  | Request (Select_request i) -> Printf.sprintf "select-request(%d)" i
  | Request (Batch_min_request sets) ->
    Printf.sprintf "batch-min-request(%d sets)" (Array.length sets)
  | Request (Batch_max_request sets) ->
    Printf.sprintf "batch-max-request(%d sets)" (Array.length sets)
  | Request (Packed_min_request { slot_bits; counts; packed }) ->
    Printf.sprintf "packed-min-request(%d instances, %d ciphertexts, %d-bit slots)"
      (Array.length counts) (Array.length packed) slot_bits
  | Request (Packed_max_request { slot_bits; counts; packed }) ->
    Printf.sprintf "packed-max-request(%d instances, %d ciphertexts, %d-bit slots)"
      (Array.length counts) (Array.length packed) slot_bits
  | Request Stats_req -> "stats-request"
  | Request Health_req -> "health-request"
  | Request Catalog_list_request -> "catalog-list-request"
  | Request (Query_submit { segments; band; indices }) ->
    Printf.sprintf "query-submit(%d candidates, %d segments, band=%s)"
      (Array.length indices) segments
      (match band with None -> "none" | Some b -> string_of_int b)
  | Request (Verdict_request blinded) ->
    Printf.sprintf "verdict-request(%d candidates)" (Array.length blinded)
  | Request Metrics_req -> "metrics-request"
  | Request Bye -> "bye"
  | Request (Resume { client_rounds; flags; _ }) ->
    Printf.sprintf "resume(acked=%d, flags=0x%02x)" client_rounds flags
  | Reply (Welcome w) ->
    Printf.sprintf "welcome(bits=%d, length=%d, dim=%d)" w.key_bits w.series_length
      w.dimension
  | Reply (Phase1_reply e) -> Printf.sprintf "phase1-reply(%d elements)" (Array.length e)
  | Reply (Cipher_reply _) -> "cipher-reply"
  | Reply (Reveal_reply _) -> "reveal-reply"
  | Reply (Catalog_reply l) -> Printf.sprintf "catalog-reply(%d records)" (Array.length l)
  | Reply (Select_ack i) -> Printf.sprintf "select-ack(%d)" i
  | Reply (Batch_cipher_reply replies) ->
    Printf.sprintf "batch-cipher-reply(%d)" (Array.length replies)
  | Reply (Bye_ack { server_seconds }) ->
    Printf.sprintf "bye-ack(server=%.3fs)" server_seconds
  | Reply (Stats_reply text) ->
    Printf.sprintf "stats-reply(%d bytes)" (String.length text)
  | Reply (Busy { retry_after_s }) ->
    Printf.sprintf "busy(retry-after=%.1fs)" retry_after_s
  | Reply (Error_reply m) -> Printf.sprintf "error(%s)" m
  | Reply (Resume_ack { server_rounds; reply; flags }) ->
    Printf.sprintf "resume-ack(server=%d, replay=%dB, flags=0x%02x)"
      server_rounds (String.length reply) flags
  | Reply (Resume_reject { reason }) -> Printf.sprintf "resume-reject(%s)" reason
  | Reply (Quota_exceeded { quota; limit; requested }) ->
    Printf.sprintf "quota-exceeded(%s: %d > %d)" quota requested limit
  | Reply (Health_reply { status; active; capacity; retry_after_s }) ->
    Printf.sprintf "health-reply(status=%d, active=%d/%d, retry-after=%.1fs)"
      status active capacity retry_after_s
  | Reply (Catalog_list_reply { ids; _ }) ->
    Printf.sprintf "catalog-list-reply(%d records)" (Array.length ids)
  | Reply (Query_sketch sketches) ->
    Printf.sprintf "query-sketch(%d candidates)" (Array.length sketches)
  | Reply (Verdict_reply survive) ->
    Printf.sprintf "verdict-reply(%d candidates)" (Array.length survive)
  | Reply (Metrics_reply text) ->
    Printf.sprintf "metrics-reply(%d bytes)" (String.length text)

let values_in = function
  | Request (Hello _) | Request Phase1_request | Request Bye | Request Stats_req
  | Request Health_req | Request Catalog_list_request | Request (Query_submit _)
  | Request Catalog_request | Request (Select_request _) | Request (Resume _)
  | Request Metrics_req -> 0
  | Request (Verdict_request blinded) -> Array.length blinded
  | Request (Min_request c) | Request (Max_request c) -> Array.length c
  | Request (Batch_min_request sets) | Request (Batch_max_request sets) ->
    Array.fold_left (fun acc set -> acc + Array.length set) 0 sets
  | Request (Packed_min_request { packed; _ }) | Request (Packed_max_request { packed; _ }) ->
    Array.length packed
  | Request (Reveal_request _) -> 1
  | Reply (Welcome _) | Reply (Bye_ack _) | Reply (Busy _) | Reply (Error_reply _)
  | Reply (Catalog_reply _) | Reply (Select_ack _) | Reply (Stats_reply _)
  | Reply (Resume_ack _) | Reply (Resume_reject _)
  | Reply (Quota_exceeded _) | Reply (Health_reply _)
  | Reply (Catalog_list_reply _) | Reply (Verdict_reply _)
  | Reply (Metrics_reply _) -> 0
  | Reply (Query_sketch sketches) ->
    Array.fold_left
      (fun acc { lo; hi } -> acc + Array.length lo + Array.length hi)
      0 sketches
  | Reply (Phase1_reply elements) ->
    Array.fold_left (fun acc e -> acc + 1 + Array.length e.coords) 0 elements
  | Reply (Cipher_reply _) | Reply (Reveal_reply _) -> 1
  | Reply (Batch_cipher_reply replies) -> Array.length replies
