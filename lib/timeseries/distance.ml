let check_dim what la lb =
  if la <> lb then
    invalid_arg (Printf.sprintf "%s: dimension mismatch (%d vs %d)" what la lb)

let sq_euclidean x y =
  check_dim "Distance.sq_euclidean" (Array.length x) (Array.length y);
  let acc = ref 0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) - y.(i) in
    acc := !acc + (d * d)
  done;
  !acc

let sq_euclidean_f x y =
  check_dim "Distance.sq_euclidean_f" (Array.length x) (Array.length y);
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let euclidean_f x y = sqrt (sq_euclidean_f x y)

let check_comparable what a b =
  if Series.dimension a <> Series.dimension b then
    invalid_arg (what ^ ": series dimensions differ")

let euclidean_sq a b =
  check_comparable "Distance.euclidean_sq" a b;
  if Series.length a <> Series.length b then
    invalid_arg "Distance.euclidean_sq: series lengths differ";
  let acc = ref 0 in
  for i = 0 to Series.length a - 1 do
    acc := !acc + sq_euclidean (Series.get a i) (Series.get b i)
  done;
  !acc

let min3 a b c = min a (min b c)

(* Paper Algorithm 1, filling the full matrix.  Kept as the reference the
   secure protocol is checked against; O(mn) memory is fine at protocol
   scales (the protocol itself stores the ciphertext matrix anyway). *)
let dtw_sq_matrix a b =
  check_comparable "Distance.dtw_sq" a b;
  let m = Series.length a and n = Series.length b in
  let mat = Array.make_matrix m n 0 in
  mat.(0).(0) <- sq_euclidean (Series.get a 0) (Series.get b 0);
  for i = 1 to m - 1 do
    mat.(i).(0) <- sq_euclidean (Series.get a i) (Series.get b 0) + mat.(i - 1).(0)
  done;
  for j = 1 to n - 1 do
    mat.(0).(j) <- sq_euclidean (Series.get a 0) (Series.get b j) + mat.(0).(j - 1)
  done;
  for i = 1 to m - 1 do
    for j = 1 to n - 1 do
      let cost = sq_euclidean (Series.get a i) (Series.get b j) in
      mat.(i).(j) <- cost + min3 mat.(i - 1).(j - 1) mat.(i - 1).(j) mat.(i).(j - 1)
    done
  done;
  mat

let dtw_sq a b =
  let mat = dtw_sq_matrix a b in
  mat.(Series.length a - 1).(Series.length b - 1)

(* Paper Algorithm 2. *)
let dfd_sq_matrix a b =
  check_comparable "Distance.dfd_sq" a b;
  let m = Series.length a and n = Series.length b in
  let mat = Array.make_matrix m n 0 in
  mat.(0).(0) <- sq_euclidean (Series.get a 0) (Series.get b 0);
  for i = 1 to m - 1 do
    mat.(i).(0) <- max (sq_euclidean (Series.get a i) (Series.get b 0)) mat.(i - 1).(0)
  done;
  for j = 1 to n - 1 do
    mat.(0).(j) <- max (sq_euclidean (Series.get a 0) (Series.get b j)) mat.(0).(j - 1)
  done;
  for i = 1 to m - 1 do
    for j = 1 to n - 1 do
      let cost = sq_euclidean (Series.get a i) (Series.get b j) in
      mat.(i).(j) <-
        max cost (min3 mat.(i - 1).(j - 1) mat.(i - 1).(j) mat.(i).(j - 1))
    done
  done;
  mat

let dfd_sq a b =
  let mat = dfd_sq_matrix a b in
  mat.(Series.length a - 1).(Series.length b - 1)

let dtw_sq_banded ~band a b =
  check_comparable "Distance.dtw_sq_banded" a b;
  if band < 0 then invalid_arg "Distance.dtw_sq_banded: negative band";
  let m = Series.length a and n = Series.length b in
  (* A complete path needs the band to cover the length difference. *)
  if abs (m - n) > band then None
  else begin
    let inf = max_int / 2 in
    let mat = Array.make_matrix m n inf in
    let in_band i j = abs (i - j) <= band in
    mat.(0).(0) <- sq_euclidean (Series.get a 0) (Series.get b 0);
    for i = 1 to m - 1 do
      if in_band i 0 && mat.(i - 1).(0) < inf then
        mat.(i).(0) <- sq_euclidean (Series.get a i) (Series.get b 0) + mat.(i - 1).(0)
    done;
    for j = 1 to n - 1 do
      if in_band 0 j && mat.(0).(j - 1) < inf then
        mat.(0).(j) <- sq_euclidean (Series.get a 0) (Series.get b j) + mat.(0).(j - 1)
    done;
    for i = 1 to m - 1 do
      for j = 1 to n - 1 do
        if in_band i j then begin
          let best = min3 mat.(i - 1).(j - 1) mat.(i - 1).(j) mat.(i).(j - 1) in
          if best < inf then
            mat.(i).(j) <- sq_euclidean (Series.get a i) (Series.get b j) + best
        end
      done
    done;
    if mat.(m - 1).(n - 1) >= inf then None else Some mat.(m - 1).(n - 1)
  end

let dfd_sq_banded ~band a b =
  check_comparable "Distance.dfd_sq_banded" a b;
  if band < 0 then invalid_arg "Distance.dfd_sq_banded: negative band";
  let m = Series.length a and n = Series.length b in
  if abs (m - n) > band then None
  else begin
    let inf = max_int / 2 in
    let mat = Array.make_matrix m n inf in
    let in_band i j = abs (i - j) <= band in
    mat.(0).(0) <- sq_euclidean (Series.get a 0) (Series.get b 0);
    for i = 1 to m - 1 do
      if in_band i 0 && mat.(i - 1).(0) < inf then
        mat.(i).(0) <- max (sq_euclidean (Series.get a i) (Series.get b 0)) mat.(i - 1).(0)
    done;
    for j = 1 to n - 1 do
      if in_band 0 j && mat.(0).(j - 1) < inf then
        mat.(0).(j) <- max (sq_euclidean (Series.get a 0) (Series.get b j)) mat.(0).(j - 1)
    done;
    for i = 1 to m - 1 do
      for j = 1 to n - 1 do
        if in_band i j then begin
          let best = min3 mat.(i - 1).(j - 1) mat.(i - 1).(j) mat.(i).(j - 1) in
          if best < inf then
            mat.(i).(j) <- max (sq_euclidean (Series.get a i) (Series.get b j)) best
        end
      done
    done;
    if mat.(m - 1).(n - 1) >= inf then None else Some mat.(m - 1).(n - 1)
  end

(* Optimal path by backtracking the DP matrix; ties broken toward the
   diagonal (the shortest coupling). *)
let dtw_sq_path a b =
  let mat = dtw_sq_matrix a b in
  let rec back i j acc =
    if i = 0 && j = 0 then (0, 0) :: acc
    else if i = 0 then back 0 (j - 1) ((i, j) :: acc)
    else if j = 0 then back (i - 1) 0 ((i, j) :: acc)
    else begin
      let d = mat.(i - 1).(j - 1) and u = mat.(i - 1).(j) and l = mat.(i).(j - 1) in
      let best = min3 d u l in
      if d = best then back (i - 1) (j - 1) ((i, j) :: acc)
      else if u = best then back (i - 1) j ((i, j) :: acc)
      else back i (j - 1) ((i, j) :: acc)
    end
  in
  back (Series.length a - 1) (Series.length b - 1) []

(* Float variants (true Euclidean local cost). *)

let min3f a b c = Float.min a (Float.min b c)

let check_comparable_f what a b =
  if Series.Fseries.dimension a <> Series.Fseries.dimension b then
    invalid_arg (what ^ ": series dimensions differ")

let euclidean a b =
  check_comparable_f "Distance.euclidean" a b;
  if Series.Fseries.length a <> Series.Fseries.length b then
    invalid_arg "Distance.euclidean: series lengths differ";
  let acc = ref 0.0 in
  for i = 0 to Series.Fseries.length a - 1 do
    acc := !acc +. sq_euclidean_f (Series.Fseries.get a i) (Series.Fseries.get b i)
  done;
  sqrt !acc

let dtw a b =
  check_comparable_f "Distance.dtw" a b;
  let m = Series.Fseries.length a and n = Series.Fseries.length b in
  let mat = Array.make_matrix m n 0.0 in
  let cost i j = euclidean_f (Series.Fseries.get a i) (Series.Fseries.get b j) in
  mat.(0).(0) <- cost 0 0;
  for i = 1 to m - 1 do
    mat.(i).(0) <- cost i 0 +. mat.(i - 1).(0)
  done;
  for j = 1 to n - 1 do
    mat.(0).(j) <- cost 0 j +. mat.(0).(j - 1)
  done;
  for i = 1 to m - 1 do
    for j = 1 to n - 1 do
      mat.(i).(j) <-
        cost i j +. min3f mat.(i - 1).(j - 1) mat.(i - 1).(j) mat.(i).(j - 1)
    done
  done;
  mat.(m - 1).(n - 1)

let dfd a b =
  check_comparable_f "Distance.dfd" a b;
  let m = Series.Fseries.length a and n = Series.Fseries.length b in
  let mat = Array.make_matrix m n 0.0 in
  let cost i j = euclidean_f (Series.Fseries.get a i) (Series.Fseries.get b j) in
  mat.(0).(0) <- cost 0 0;
  for i = 1 to m - 1 do
    mat.(i).(0) <- Float.max (cost i 0) mat.(i - 1).(0)
  done;
  for j = 1 to n - 1 do
    mat.(0).(j) <- Float.max (cost 0 j) mat.(0).(j - 1)
  done;
  for i = 1 to m - 1 do
    for j = 1 to n - 1 do
      mat.(i).(j) <-
        Float.max (cost i j)
          (min3f mat.(i - 1).(j - 1) mat.(i - 1).(j) mat.(i).(j - 1))
    done
  done;
  mat.(m - 1).(n - 1)

(* ERP (Chen & Ng): gaps are compared against a fixed reference element,
   which restores the triangle inequality that DTW lacks. *)
let erp_sq ~gap a b =
  check_comparable "Distance.erp_sq" a b;
  if Array.length gap <> Series.dimension a then
    invalid_arg "Distance.erp_sq: gap element dimension mismatch";
  let m = Series.length a and n = Series.length b in
  let mat = Array.make_matrix (m + 1) (n + 1) 0 in
  for i = 1 to m do
    mat.(i).(0) <- mat.(i - 1).(0) + sq_euclidean (Series.get a (i - 1)) gap
  done;
  for j = 1 to n do
    mat.(0).(j) <- mat.(0).(j - 1) + sq_euclidean (Series.get b (j - 1)) gap
  done;
  for i = 1 to m do
    for j = 1 to n do
      let xi = Series.get a (i - 1) and yj = Series.get b (j - 1) in
      mat.(i).(j) <-
        min3
          (mat.(i - 1).(j - 1) + sq_euclidean xi yj)
          (mat.(i - 1).(j) + sq_euclidean xi gap)
          (mat.(i).(j - 1) + sq_euclidean yj gap)
    done
  done;
  mat.(m).(n)
