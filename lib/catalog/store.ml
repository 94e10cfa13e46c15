open Import

type t = {
  tbl : (string, Series.t) Hashtbl.t;
  mutable order : string list;  (* reverse insertion order *)
}

let create () = { tbl = Hashtbl.create 16; order = [] }

let dimension t =
  (* The last-inserted record suffices: every insert checked against it. *)
  match t.order with
  | [] -> None
  | id :: _ -> Some (Series.dimension (Hashtbl.find t.tbl id))

let valid_id id =
  String.length id > 0 && not (String.contains id '\n') && not (String.contains id '\r')

let insert t ~id series =
  if not (valid_id id) then
    invalid_arg "Store.insert: id must be non-empty and newline-free";
  if Hashtbl.mem t.tbl id then
    invalid_arg (Printf.sprintf "Store.insert: duplicate id %S" id);
  (match dimension t with
  | Some d when d <> Series.dimension series ->
    invalid_arg
      (Printf.sprintf "Store.insert: dimension %d differs from catalog dimension %d"
         (Series.dimension series) d)
  | _ -> ());
  Hashtbl.add t.tbl id series;
  t.order <- id :: t.order

let evict t ~id =
  if Hashtbl.mem t.tbl id then begin
    Hashtbl.remove t.tbl id;
    t.order <- List.filter (fun x -> x <> id) t.order;
    true
  end
  else false

let find t ~id = Hashtbl.find_opt t.tbl id
let mem t ~id = Hashtbl.mem t.tbl id
let length t = List.length t.order
let ids t = Array.of_list (List.rev t.order)
let records t = Array.map (fun id -> Hashtbl.find t.tbl id) (ids t)
let lengths t = Array.map Series.length (records t)

let max_abs_value t =
  Array.fold_left (fun acc s -> Stdlib.max acc (Series.max_abs_value s)) 0 (records t)

let basename_sans_ext path =
  let base = Filename.basename path in
  match Filename.extension base with
  | "" -> base
  | ext -> String.sub base 0 (String.length base - String.length ext)

let load_file_into t path =
  let base = basename_sans_ext path in
  match Csv.load_many path with
  | [ series ] -> insert t ~id:base series
  | blocks ->
    List.iteri (fun k series -> insert t ~id:(Printf.sprintf "%s#%d" base k) series) blocks

let load_dir dir =
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".csv")
    |> List.sort String.compare
  in
  if entries = [] then
    invalid_arg (Printf.sprintf "Store.load_dir: no *.csv files in %s" dir);
  let t = create () in
  List.iter (fun f -> load_file_into t (Filename.concat dir f)) entries;
  t

let escape_id id =
  String.map (fun c -> match c with '/' | '\\' | '#' -> '_' | c -> c) id

let save_dir ?disk_faults t dir =
  let check = Ppst_transport.Faults.Disk.check_opt disk_faults in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* Crash safety: each CSV lands under a temp name that load_dir ignores
     (no .csv suffix), is fsynced, then atomically renamed over the final
     path.  A crash mid-save leaves either the old series or the new one,
     never a truncated file; stray .tmp files are invisible to loads. *)
  Array.iter
    (fun id ->
      let series = Hashtbl.find t.tbl id in
      let final = Filename.concat dir (escape_id id ^ ".csv") in
      let tmp = final ^ ".tmp" in
      check Ppst_transport.Faults.Disk.Write;
      Csv.save tmp series;
      check Ppst_transport.Faults.Disk.Fsync;
      Ppst_transport.Spool.fsync_path tmp;
      check Ppst_transport.Faults.Disk.Rename;
      Sys.rename tmp final)
    (ids t);
  Ppst_transport.Spool.fsync_path dir

let generate ~seed ~count ~length ~dim ~max_value =
  if count <= 0 then invalid_arg "Store.generate: count must be positive";
  let t = create () in
  for i = 0 to count - 1 do
    let series =
      Generate.random_vectors ~seed:(seed + i) ~length ~dim ~max_value
    in
    insert t ~id:(string_of_int i) series
  done;
  t
