(* Reader for the JSONL traces Telemetry.jsonl_sink writes: a minimal
   hand-rolled JSON parser (the toolchain has no JSON library, by
   design), an entry decoder, per-phase/per-round aggregation for
   ppst_analyze, and a leakage lint for scripts/ci.sh. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- JSON parsing --------------------------------------------------------- *)

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> parse_error "expected '%c' at %d, found '%c'" c !pos d
    | None -> parse_error "expected '%c' at %d, found end of input" c !pos
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else parse_error "bad literal at %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then parse_error "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 > n then parse_error "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex)
             with Failure _ -> parse_error "bad \\u escape"
           in
           (* BMP-only decoding is plenty: our writer never emits \u *)
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> parse_error "unknown escape '\\%c'" e);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then parse_error "expected a number at %d" start;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> parse_error "bad number %S" text
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> parse_error "expected ',' or '}' at %d" !pos
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> parse_error "expected ',' or ']' at %d" !pos
        in
        elements []
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error "trailing bytes after JSON value at %d" !pos;
  v

(* --- trace entries -------------------------------------------------------- *)

type kind = Start | End | Point

type entry = {
  kind : kind;
  id : int;  (* 0 for points *)
  name : string;
  t : float;
  dt : float;  (* 0 except for End *)
  attrs : (string * json) list;
}

let field obj key = List.assoc_opt key obj

let num_field obj key =
  match field obj key with
  | Some (Num f) -> f
  | _ -> parse_error "missing numeric field %S" key

let entry_of_line line =
  match json_of_string line with
  | Obj obj -> begin
    let kind =
      match field obj "ev" with
      | Some (Str "start") -> Start
      | Some (Str "end") -> End
      | Some (Str "point") -> Point
      | _ -> parse_error "missing or unknown \"ev\" field"
    in
    let name =
      match field obj "name" with
      | Some (Str s) -> s
      | _ -> parse_error "missing \"name\" field"
    in
    let attrs =
      match field obj "attrs" with
      | Some (Obj a) -> a
      | None -> []
      | Some _ -> parse_error "\"attrs\" is not an object"
    in
    {
      kind;
      id = (match field obj "id" with Some (Num f) -> int_of_float f | _ -> 0);
      name;
      t = num_field obj "t";
      dt = (match kind with End -> num_field obj "dt" | _ -> 0.0);
      attrs;
    }
  end
  | _ -> parse_error "trace line is not a JSON object"

type tail = Complete | Truncated of { line : int; reason : string }

(* A malformed FINAL line is an expected artifact of a writer killed
   mid-record (the server dying between write and flush), so it yields a
   typed [Truncated] tail instead of an exception; a malformed line with
   well-formed lines after it means real corruption and still raises. *)
let read_lines_partial ic =
  let rec slurp lineno acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> slurp (lineno + 1) ((lineno, line) :: acc)
  in
  let raw = slurp 1 [] in
  let last_lineno = match List.rev raw with (n, _) :: _ -> n | [] -> 0 in
  let rec go acc = function
    | [] -> (List.rev acc, Complete)
    | (_, "") :: rest -> go acc rest
    | (lineno, line) :: rest -> begin
      match entry_of_line line with
      | entry -> go (entry :: acc) rest
      | exception Parse_error m ->
        if lineno = last_lineno then
          (List.rev acc, Truncated { line = lineno; reason = m })
        else parse_error "line %d: %s" lineno m
    end
  in
  go [] raw

let read_lines ic =
  match read_lines_partial ic with
  | entries, Complete -> entries
  | _, Truncated { line; reason } -> parse_error "line %d: %s" line reason

let read_file_partial path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      read_lines_partial ic)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_lines ic)

(* --- leakage lint --------------------------------------------------------- *)

(* The writer can only emit what the Telemetry.value variant allows, so
   any violation here means a foreign line (or a future regression)
   snuck into the trace: string values outside the phase enum, numbers
   big enough to be plaintexts/offsets, nested structures. *)
let allowed_strings = [ "phase1"; "phase2"; "phase3"; "offline" ]
let max_magnitude = 1e15

let lint_entry e =
  if String.length e.name > 64 then
    Some (Printf.sprintf "span name %S longer than 64 bytes" e.name)
  else
    List.fold_left
      (fun acc (k, v) ->
        match acc with
        | Some _ -> acc
        | None ->
          if String.length k > 32 then
            Some (Printf.sprintf "attribute key %S longer than 32 bytes" k)
          else begin
            match v with
            | Num f when Float.abs f > max_magnitude ->
              Some (Printf.sprintf "attribute %S carries an oversized number" k)
            | Num _ | Bool _ -> None
            | Str s when List.mem s allowed_strings -> None
            | Str s ->
              Some (Printf.sprintf "attribute %S carries a free-form string %S" k s)
            | Null | Arr _ | Obj _ ->
              Some (Printf.sprintf "attribute %S is not a scalar" k)
          end)
      None e.attrs

(* --- aggregation ---------------------------------------------------------- *)

type span_row = { span_name : string; span_count : int; total_s : float }

type round_row = {
  opcode : int;
  round_count : int;
  request_bytes : int;
  reply_bytes : int;
  latency_s : float;
}

type summary = {
  spans : span_row list;  (* by name, alphabetical *)
  rounds : round_row list;  (* by opcode, ascending *)
  total_round_bytes : int;
  total_rounds : int;
  total_latency_s : float;
}

let int_attr e key =
  match List.assoc_opt key e.attrs with
  | Some (Num f) -> int_of_float f
  | _ -> 0

let float_attr e key =
  match List.assoc_opt key e.attrs with Some (Num f) -> f | _ -> 0.0

let summarize entries =
  let spans : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  let rounds : (int, int * int * int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.kind with
      | End ->
        let count, total =
          Option.value (Hashtbl.find_opt spans e.name) ~default:(0, 0.0)
        in
        Hashtbl.replace spans e.name (count + 1, total +. e.dt)
      | Point when e.name = "channel.round" ->
        let opcode = int_attr e "opcode" in
        let count, req, rep, lat =
          Option.value (Hashtbl.find_opt rounds opcode) ~default:(0, 0, 0, 0.0)
        in
        Hashtbl.replace rounds opcode
          ( count + 1,
            req + int_attr e "request_bytes",
            rep + int_attr e "reply_bytes",
            lat +. float_attr e "latency_s" )
      | _ -> ())
    entries;
  let span_rows =
    Hashtbl.fold
      (fun name (count, total) acc ->
        { span_name = name; span_count = count; total_s = total } :: acc)
      spans []
    |> List.sort (fun a b -> String.compare a.span_name b.span_name)
  in
  let round_rows =
    Hashtbl.fold
      (fun opcode (count, req, rep, lat) acc ->
        {
          opcode;
          round_count = count;
          request_bytes = req;
          reply_bytes = rep;
          latency_s = lat;
        }
        :: acc)
      rounds []
    |> List.sort (fun a b -> compare a.opcode b.opcode)
  in
  {
    spans = span_rows;
    rounds = round_rows;
    total_round_bytes =
      List.fold_left
        (fun acc r -> acc + r.request_bytes + r.reply_bytes)
        0 round_rows;
    total_rounds = List.fold_left (fun acc r -> acc + r.round_count) 0 round_rows;
    total_latency_s =
      List.fold_left (fun acc r -> acc +. r.latency_s) 0.0 round_rows;
  }

let pp_summary ~opcode_name fmt s =
  Format.fprintf fmt "@[<v>spans:@,";
  Format.fprintf fmt "  %-28s %8s %12s@," "name" "count" "total s";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-28s %8d %12.6f@," r.span_name r.span_count r.total_s)
    s.spans;
  Format.fprintf fmt "rounds (request/reply pairs):@,";
  Format.fprintf fmt "  %-24s %8s %12s %12s %12s@," "opcode" "count" "req bytes"
    "reply bytes" "latency s";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-24s %8d %12d %12d %12.6f@," (opcode_name r.opcode)
        r.round_count r.request_bytes r.reply_bytes r.latency_s)
    s.rounds;
  Format.fprintf fmt "total: %d rounds, %d bytes, %.6f s@]" s.total_rounds
    s.total_round_bytes s.total_latency_s
