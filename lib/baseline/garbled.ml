let and_gates ~m ~n ~d ~bits =
  if m <= 0 || n <= 0 || d <= 0 || bits <= 0 then
    invalid_arg "Garbled.and_gates: bad sizes";
  (* Per matrix cell: d subtractions (bits gates each), d squarings
     (bits² each), d-1 additions of partial costs, one 3-way minimum
     (2 comparators + 2 muxes ≈ 4·bits), one accumulator addition. *)
  let per_cell =
    (d * bits) + (d * bits * bits) + ((d - 1) * bits) + (4 * bits) + bits
  in
  m * n * per_cell

let per_gate_seconds = 1e-5

let estimated_seconds ~m ~n ~d ~bits () =
  float_of_int (and_gates ~m ~n ~d ~bits) *. per_gate_seconds
