let check_1d_f what s =
  if Series.Fseries.dimension s <> 1 then
    invalid_arg (what ^ ": only 1-dimensional series")

(* Equal-width frames with remainder spread over the leading frames:
   frame i covers [bounds i, bounds (i+1)). *)
let frame_bounds ~segments ~length i = i * length / segments

let paa ~segments fs =
  check_1d_f "Paa.paa" fs;
  let length = Series.Fseries.length fs in
  if segments <= 0 then invalid_arg "Paa.paa: segments must be positive";
  if segments > length then invalid_arg "Paa.paa: more segments than elements";
  Array.init segments (fun i ->
      let lo = frame_bounds ~segments ~length i in
      let hi = frame_bounds ~segments ~length (i + 1) in
      let acc = ref 0.0 in
      for t = lo to hi - 1 do
        acc := !acc +. (Series.Fseries.get fs t).(0)
      done;
      !acc /. float_of_int (hi - lo))

(* Standard-normal quantiles at i/alphabet, i = 1 .. alphabet-1, from the
   classic SAX table (Lin et al., DMKD 2007). *)
let breakpoint_table =
  [|
    [| 0.0 |] (* alphabet 2 *);
    [| -0.43; 0.43 |];
    [| -0.67; 0.0; 0.67 |];
    [| -0.84; -0.25; 0.25; 0.84 |];
    [| -0.97; -0.43; 0.0; 0.43; 0.97 |];
    [| -1.07; -0.57; -0.18; 0.18; 0.57; 1.07 |];
    [| -1.15; -0.67; -0.32; 0.0; 0.32; 0.67; 1.15 |];
    [| -1.22; -0.76; -0.43; -0.14; 0.14; 0.43; 0.76; 1.22 |];
    [| -1.28; -0.84; -0.52; -0.25; 0.0; 0.25; 0.52; 0.84; 1.28 |];
  |]

let sax_breakpoints ~alphabet =
  if alphabet < 2 || alphabet > 10 then
    invalid_arg "Paa.sax_breakpoints: alphabet must be in [2, 10]";
  Array.copy breakpoint_table.(alphabet - 2)

let symbol_of breakpoints v =
  let rec go i =
    if i >= Array.length breakpoints then i
    else if v < breakpoints.(i) then i
    else go (i + 1)
  in
  go 0

let sax ~segments ~alphabet fs =
  let z = Normalize.z_normalize fs in
  let means = paa ~segments z in
  let breakpoints = sax_breakpoints ~alphabet in
  Array.map (symbol_of breakpoints) means

(* MINDIST (Lin et al.): symbols one apart contribute 0; otherwise the gap
   between the nearer breakpoints.  Scaled by sqrt(n/w) on the distance —
   we return the squared value. *)
let sax_distance_sq ~alphabet ~original_length a b =
  if Array.length a <> Array.length b then
    invalid_arg "Paa.sax_distance_sq: word lengths differ";
  if Array.length a = 0 then invalid_arg "Paa.sax_distance_sq: empty words";
  let breakpoints = sax_breakpoints ~alphabet in
  let cell r c =
    if abs (r - c) <= 1 then 0.0
    else begin
      let hi = Stdlib.max r c and lo = Stdlib.min r c in
      breakpoints.(hi - 1) -. breakpoints.(lo)
    end
  in
  let acc = ref 0.0 in
  Array.iteri
    (fun i ra ->
      let d = cell ra b.(i) in
      acc := !acc +. (d *. d))
    a;
  float_of_int original_length /. float_of_int (Array.length a) *. !acc
