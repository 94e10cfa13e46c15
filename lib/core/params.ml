open Import

type t = { key_bits : int; k : int; gamma_slack : int }

let default = { key_bits = 64; k = 10; gamma_slack = 2 }

let make ?(key_bits = default.key_bits) ?(k = default.k)
    ?(gamma_slack = default.gamma_slack) () =
  { key_bits; k; gamma_slack }

exception Insecure of string

let insecure fmt = Printf.ksprintf (fun s -> raise (Insecure s)) fmt

let alpha t =
  let rec log2_floor v acc = if v <= 1 then acc else log2_floor (v / 2) (acc + 1) in
  log2_floor t.k 0

type session = {
  params : t;
  beta : int;
  gamma : int;
  value_bound : Bigint.t;
  offset_lo : Bigint.t;
  offset_hi : Bigint.t;
}

let plan_bound t ~value_bound ~modulus =
  if t.k < 4 then insecure "random set size k = %d; need k >= 4 so that 0 < gamma - beta < alpha is satisfiable" t.k;
  let a = alpha t in
  if t.gamma_slack <= 0 || t.gamma_slack >= a then
    insecure "gamma_slack = %d violates 0 < gamma - beta < alpha (alpha = %d for k = %d)"
      t.gamma_slack a t.k;
  if Bigint.compare value_bound Bigint.one < 0 then
    invalid_arg "Params.plan_bound: value_bound must be positive";
  (* The offset range (2^γ, 2^(γ+1)] must hold k distinct offsets, so a
     tiny value bound (an all-zero DFD, say) still plans 2^γ >= k. *)
  let rec log2_ceil c = if 1 lsl c >= t.k then c else log2_ceil (c + 1) in
  let beta =
    Stdlib.max (log2_ceil 0 - t.gamma_slack)
      (Stdlib.max 1 (Bigint.num_bits (Bigint.pred value_bound) - 1))
  in
  let gamma = beta + t.gamma_slack in
  let offset_lo = Bigint.succ (Bigint.shift_left Bigint.one gamma) in
  let offset_hi = Bigint.shift_left Bigint.one (gamma + 1) in
  (* Wrap-around guard: the largest masked candidate must stay below the
     Paillier plaintext modulus. *)
  let max_candidate = Bigint.add value_bound offset_hi in
  if Bigint.compare max_candidate modulus >= 0 then
    insecure
      "masked candidates (up to %s) would wrap around the %d-bit plaintext modulus; \
       use a larger key or smaller series/values"
      (Bigint.to_string max_candidate) (Bigint.num_bits modulus);
  { params = t; beta; gamma; value_bound; offset_lo; offset_hi }

let plan t ~max_value ~dimension ~client_length ~server_length ~modulus ~distance =
  if max_value <= 0 then invalid_arg "Params.plan: max_value must be positive";
  if dimension <= 0 then invalid_arg "Params.plan: dimension must be positive";
  if client_length <= 0 || server_length <= 0 then
    invalid_arg "Params.plan: series lengths must be positive";
  (* Strict plaintext bound: the largest value any matrix entry can take.
     Every local cost is at most d * max_value^2; a DTW warping path has at
     most m + n - 1 couplings; DFD entries never exceed a single cost.
     The product is a Bigint: a large bound must not wrap a native int. *)
  let max_cost =
    Bigint.mul_int (Bigint.mul_int (Bigint.of_int max_value) max_value) dimension
  in
  let value_bound =
    match distance with
    | `Dtw ->
      (* longest warping path: m + n - 1 couplings *)
      Bigint.succ (Bigint.mul_int max_cost (client_length + server_length - 1))
    | `Dfd ->
      (* DFD entries never exceed a single pairwise cost *)
      Bigint.succ max_cost
    | `Erp ->
      (* ERP alignments touch at most m + n elements (matches + gaps) *)
      Bigint.succ (Bigint.mul_int max_cost (client_length + server_length))
    | `Euclidean ->
      (* lockstep sum over min(m, n) elements; subsequence windows reuse
         this bound with the window length *)
      Bigint.succ (Bigint.mul_int max_cost (Stdlib.min client_length server_length))
  in
  plan_bound t ~value_bound ~modulus

let pp_session fmt s =
  Format.fprintf fmt
    "@[<h>{beta = %d; gamma = %d; value_bound = %a; offsets in [%a, %a]}@]" s.beta
    s.gamma Bigint.pp s.value_bound Bigint.pp s.offset_lo Bigint.pp s.offset_hi
