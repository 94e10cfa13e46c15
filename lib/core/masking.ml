open Import

type prepared = { candidates : Paillier.ciphertext array; unmask : Bigint.t }

(* Distinct offsets, sorted ascending.  Distinctness matters at the
   extremes: a duplicated r_min (r_max) would let two decoys share the
   extreme offset and slightly sharpen the server's guessing attack, so we
   redraw collisions (the range has at least 2^γ values, collisions are
   rare).  [draw] takes one uniform offset from the range. *)
let distinct_sorted ~draw ~equal ~compare ~count =
  let rec fill acc n =
    if n = 0 then acc
    else begin
      let r = draw () in
      if List.exists (equal r) acc then fill acc n else fill (r :: acc) (n - 1)
    end
  in
  let offsets = Array.of_list (fill [] count) in
  Array.sort compare offsets;
  offsets

(* An offset range below 2^61 is drawn with [Secure_rng.int], which
   reads the same bytes with the same mask and rejections as
   [Secure_rng.below] on the range's size, so both paths give the same
   offsets from the same stream; only wider ranges pay for Bigint. *)
let draw_offsets ~rng ~session ~count =
  let module S = Ppst_rng.Secure_rng in
  let lo = session.Params.offset_lo and hi = session.Params.offset_hi in
  if Bigint.num_bits hi <= 61 then begin
    let lo = Bigint.to_int_exn lo in
    let span = Bigint.to_int_exn hi - lo + 1 in
    Array.map Bigint.of_int
      (distinct_sorted ~count ~equal:Int.equal ~compare:Int.compare ~draw:(fun () ->
           lo + S.int rng span))
  end
  else
    distinct_sorted ~count ~equal:Bigint.equal ~compare:Bigint.compare ~draw:(fun () ->
        S.in_range rng ~lo ~hi)

(* The candidate construction split in two: [plan] performs every rng
   draw (offsets, decoy sources, shuffle permutation) — stateful,
   sequential — while [apply_plan] folds each offset into its source
   ciphertext — pure given the folding step, so instances can fan out
   over a Domain pool without the worker count touching the rng stream. *)
type plan = {
  pivot : Bigint.t;
  decoy_offsets : Bigint.t array;
  decoy_sources : int array;  (** index into the inputs, per decoy *)
  perm : int array;  (** shuffled identity over all candidates *)
}

let plan ~rng ~session ~extreme ~n_inputs =
  if n_inputs = 0 then invalid_arg "Masking.plan: no inputs";
  let module S = Ppst_rng.Secure_rng in
  let k = session.Params.params.Params.k in
  let offsets = draw_offsets ~rng ~session ~count:k in
  let pivot, decoy_offsets =
    match extreme with
    | `Min -> (offsets.(0), Array.sub offsets 1 (k - 1))
    | `Max -> (offsets.(k - 1), Array.sub offsets 0 (k - 1))
  in
  let decoy_sources = Array.map (fun _ -> S.int rng n_inputs) decoy_offsets in
  let perm = Array.init (n_inputs + k - 1) Fun.id in
  S.shuffle_in_place rng perm;
  { pivot; decoy_offsets; decoy_sources; perm }

let plan_encryptions p ~n_inputs = n_inputs + Array.length p.decoy_offsets

let apply_plan ~fold p (inputs : Paillier.ciphertext array) =
  (* Fold order is fixed — pivot per input, then each decoy — so a
     caller feeding pre-acquired randomness consumes it identically at
     any pool size. *)
  let masked = Array.map (fun c -> fold c p.pivot) inputs in
  let decoys =
    Array.map2 (fun source r -> fold inputs.(source) r) p.decoy_sources p.decoy_offsets
  in
  let unshuffled = Array.append masked decoys in
  { candidates = Array.map (fun i -> unshuffled.(i)) p.perm; unmask = p.pivot }

let prepare ?encrypt ~extreme ~pk ~rng ~session (inputs : Paillier.ciphertext array) =
  if Array.length inputs = 0 then invalid_arg "Masking.prepare: no inputs";
  let encrypt = match encrypt with Some f -> f | None -> Paillier.encrypt pk rng in
  let p = plan ~rng ~session ~extreme ~n_inputs:(Array.length inputs) in
  apply_plan ~fold:(fun c r -> Paillier.add pk c (encrypt r)) p inputs

let prepare_min ?encrypt ~pk ~rng ~session inputs =
  prepare ?encrypt ~extreme:`Min ~pk ~rng ~session inputs

let prepare_max ?encrypt ~pk ~rng ~session inputs =
  prepare ?encrypt ~extreme:`Max ~pk ~rng ~session inputs

let unmask ~pk prepared reply =
  Paillier.add_plain pk reply (Bigint.neg prepared.unmask)

let unmask_min = unmask
let unmask_max = unmask
