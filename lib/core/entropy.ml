let log2 x = log x /. log 2.0

let uniform_entropy gamma_cap =
  if gamma_cap < 1 then invalid_arg "Entropy.uniform_entropy: need Γ >= 1";
  log2 (float_of_int ((2 * gamma_cap) - 1))

(* Sum of two independent uniforms on [Γ, 2Γ-1]: the support has 2Γ-1
   points with probabilities j/Γ² for j = 1..Γ..1 (triangular).  Direct
   summation of -p log p; O(Γ). *)
let triangular_sum_entropy gamma_cap =
  if gamma_cap < 1 then invalid_arg "Entropy.triangular_sum_entropy: need Γ >= 1";
  let g = float_of_int gamma_cap in
  let g2 = g *. g in
  let acc = ref 0.0 in
  for j = 1 to gamma_cap do
    let p = float_of_int j /. g2 in
    (* weight 2 for j < Γ (rising and falling flank), 1 for the peak *)
    let w = if j = gamma_cap then 1.0 else 2.0 in
    acc := !acc -. (w *. p *. log2 p)
  done;
  !acc

let min_entropy gamma_cap =
  if gamma_cap < 1 then invalid_arg "Entropy.min_entropy: need Γ >= 1";
  log2 (float_of_int gamma_cap)

let preserved_fraction gamma_cap =
  triangular_sum_entropy gamma_cap /. uniform_entropy gamma_cap

(* The Section 5.4 table as ppst_analyze and the bench print it. *)
let table gamma_bits =
  Printf.sprintf "%12s %14s %16s %14s %12s" "Gamma" "uniform H" "masked-sum H"
    "min-entropy" "preserved"
  :: List.map
       (fun bits ->
         let g = 1 lsl bits in
         Printf.sprintf "%12s %14.3f %16.3f %14.3f %11.1f%%"
           (Printf.sprintf "2^%d" bits)
           (uniform_entropy g) (triangular_sum_entropy g) (min_entropy g)
           (100.0 *. preserved_fraction g))
       gamma_bits

let normalize probs =
  let total = Array.fold_left ( +. ) 0.0 probs in
  if total <= 0.0 then invalid_arg "Entropy: empty distribution";
  Array.map (fun p -> p /. total) probs

let convolve value_probs offset_probs =
  if Array.length value_probs = 0 || Array.length offset_probs = 0 then
    invalid_arg "Entropy.convolve: empty distribution";
  let out = Array.make (Array.length value_probs + Array.length offset_probs - 1) 0.0 in
  Array.iteri
    (fun i pv ->
      if pv > 0.0 then
        Array.iteri (fun j pr -> out.(i + j) <- out.(i + j) +. (pv *. pr)) offset_probs)
    value_probs;
  normalize out

let shannon probs =
  let probs = normalize probs in
  Array.fold_left (fun acc p -> if p > 0.0 then acc -. (p *. log2 p) else acc) 0.0 probs

let min_entropy_of probs =
  let probs = normalize probs in
  let peak = Array.fold_left Float.max 0.0 probs in
  -.log2 peak

let empirical ~samples =
  if Array.length samples = 0 then invalid_arg "Entropy.empirical: no samples";
  let lo = Array.fold_left min samples.(0) samples in
  let hi = Array.fold_left max samples.(0) samples in
  let hist = Array.make (hi - lo + 1) 0.0 in
  Array.iter (fun s -> hist.(s - lo) <- hist.(s - lo) +. 1.0) samples;
  normalize hist
