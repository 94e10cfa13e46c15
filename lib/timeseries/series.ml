type t = { data : int array array; dim : int }

let validate_dims what dims data =
  Array.iteri
    (fun i e ->
      if Array.length e <> dims then
        invalid_arg
          (Printf.sprintf "%s: element %d has dimension %d, expected %d" what i
             (Array.length e) dims))
    data

let create data =
  if Array.length data = 0 then invalid_arg "Series.create: empty series";
  let dim = Array.length data.(0) in
  if dim = 0 then invalid_arg "Series.create: zero-dimensional elements";
  validate_dims "Series.create" dim data;
  { data = Array.map Array.copy data; dim }

let of_list values =
  if values = [] then invalid_arg "Series.of_list: empty series";
  { data = Array.of_list (List.map (fun v -> [| v |]) values); dim = 1 }

let length t = Array.length t.data
let dimension t = t.dim
let get t i = t.data.(i)

let value t i =
  if t.dim <> 1 then invalid_arg "Series.value: series is not 1-dimensional";
  t.data.(i).(0)

let to_array t = Array.map Array.copy t.data

let sub t ~pos ~len =
  if pos < 0 || len <= 0 || pos + len > length t then
    invalid_arg "Series.sub: bounds";
  { data = Array.init len (fun i -> Array.copy t.data.(pos + i)); dim = t.dim }

let append a b =
  if a.dim <> b.dim then invalid_arg "Series.append: dimension mismatch";
  { data = Array.append (to_array a) (to_array b); dim = a.dim }

let map f t =
  let data = Array.map (fun e -> f (Array.copy e)) t.data in
  if Array.length data = 0 then invalid_arg "Series.map: empty result";
  let dim = Array.length data.(0) in
  validate_dims "Series.map" dim data;
  { data; dim }

let max_abs_value t =
  Array.fold_left
    (fun acc e -> Array.fold_left (fun acc v -> max acc (abs v)) acc e)
    0 t.data

let find_outside t ~max_value =
  let rec go i l =
    if i >= Array.length t.data then None
    else if l >= t.dim then go (i + 1) 0
    else
      let v = t.data.(i).(l) in
      if v < 0 || v > max_value then Some (i, l, v) else go i (l + 1)
  in
  go 0 0

let equal a b =
  a.dim = b.dim
  && length a = length b
  && begin
    let rec go i =
      i >= length a || (a.data.(i) = b.data.(i) && go (i + 1))
    in
    go 0
  end

let pp fmt t =
  Format.fprintf fmt "@[<hov 2>[";
  Array.iteri
    (fun i e ->
      if i > 0 then Format.fprintf fmt ";@ ";
      if t.dim = 1 then Format.pp_print_int fmt e.(0)
      else begin
        Format.fprintf fmt "(";
        Array.iteri
          (fun j v ->
            if j > 0 then Format.fprintf fmt ", ";
            Format.pp_print_int fmt v)
          e;
        Format.fprintf fmt ")"
      end)
    t.data;
  Format.fprintf fmt "]@]"

module Fseries = struct
  type t = { data : float array array; dim : int }

  let create data =
    if Array.length data = 0 then invalid_arg "Fseries.create: empty series";
    let dim = Array.length data.(0) in
    if dim = 0 then invalid_arg "Fseries.create: zero-dimensional elements";
    Array.iteri
      (fun i e ->
        if Array.length e <> dim then
          invalid_arg
            (Printf.sprintf "Fseries.create: element %d has dimension %d" i
               (Array.length e)))
      data;
    { data = Array.map Array.copy data; dim }

  let of_list values =
    if values = [] then invalid_arg "Fseries.of_list: empty series";
    { data = Array.of_list (List.map (fun v -> [| v |]) values); dim = 1 }

  let length t = Array.length t.data
  let dimension t = t.dim
  let get t i = t.data.(i)
  let to_array t = Array.map Array.copy t.data

  let map f t =
    let data = Array.map (fun e -> f (Array.copy e)) t.data in
    let dim = Array.length data.(0) in
    Array.iter
      (fun e ->
        if Array.length e <> dim then invalid_arg "Fseries.map: ragged result")
      data;
    { data; dim }
end
