open Import

type prepared = { candidates : Paillier.ciphertext array; unmask : Bigint.t }

(* Distinct offsets, sorted ascending.  Distinctness matters at the
   extremes: a duplicated r_min (r_max) would let two decoys share the
   extreme offset and slightly sharpen the server's guessing attack, so we
   redraw collisions (the range has at least 2^γ values, collisions are
   rare). *)
let draw_offsets ~rng ~session ~count =
  let module S = Ppst_rng.Secure_rng in
  let lo = session.Params.offset_lo and hi = session.Params.offset_hi in
  let rec fill acc n =
    if n = 0 then acc
    else begin
      let r = S.in_range rng ~lo ~hi in
      if List.exists (Bigint.equal r) acc then fill acc n
      else fill (r :: acc) (n - 1)
    end
  in
  let offsets = Array.of_list (fill [] count) in
  Array.sort Bigint.compare offsets;
  offsets

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
