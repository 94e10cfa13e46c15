(* Structured spans and events with leakage-safe attributes.

   Leakage safety is enforced by construction: attribute values are a
   closed variant of small public quantities (counts, byte sizes, wire
   opcodes, durations, phase tags, booleans).  There is no string or
   bigint constructor, so plaintexts, masking offsets, and ciphertext
   bytes cannot reach a sink no matter what an instrumentation site does.
   The only strings in an emitted record are the static, code-chosen
   span/attribute names and the four-member phase enum (see SECURITY.md,
   "Telemetry leakage safety").

   Determinism: nothing here draws from Secure_rng or influences protocol
   state — emission only reads a monotonic clock, so a seeded transcript
   is bit-identical whether telemetry is enabled or not (asserted in
   test_parallel.ml). *)

type level = Quiet | Info | Debug

let level_rank = function Quiet -> 0 | Info -> 1 | Debug -> 2

let level_of_string = function
  | "quiet" -> Quiet
  | "info" -> Info
  | "debug" -> Debug
  | s -> invalid_arg ("Telemetry.level_of_string: " ^ s)

type phase = Phase1 | Phase2 | Phase3 | Offline

let phase_name = function
  | Phase1 -> "phase1"
  | Phase2 -> "phase2"
  | Phase3 -> "phase3"
  | Offline -> "offline"

type value =
  | Int of int
  | Size of int
  | Duration of float
  | Opcode of int
  | Phase of phase
  | Flag of bool

type attr = string * value

type event =
  | Span_start of { id : int; name : string; t : float; attrs : attr list }
  | Span_end of { id : int; name : string; t : float; dt : float; attrs : attr list }
  | Point of { name : string; t : float; attrs : attr list }

(* CLOCK_MONOTONIC via the bechamel stub, in seconds: the one clock
   every measured duration, span timestamp and deadline reads
   (Ppst_transport.Monoclock re-exports it).  Immune to wall-clock
   steps; never affects protocol bytes. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* --- rendering ------------------------------------------------------------ *)

let value_to_json = function
  | Int i | Size i | Opcode i -> string_of_int i
  | Duration s -> Printf.sprintf "%.9f" s
  | Phase p -> Printf.sprintf "%S" (phase_name p)
  | Flag b -> if b then "true" else "false"

let attrs_to_json attrs =
  match attrs with
  | [] -> "{}"
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (value_to_json v)) attrs)
    ^ "}"

let event_to_json = function
  | Span_start { id; name; t; attrs } ->
    Printf.sprintf {|{"ev":"start","id":%d,"name":%S,"t":%.9f,"attrs":%s}|} id name t
      (attrs_to_json attrs)
  | Span_end { id; name; t; dt; attrs } ->
    Printf.sprintf {|{"ev":"end","id":%d,"name":%S,"t":%.9f,"dt":%.9f,"attrs":%s}|}
      id name t dt (attrs_to_json attrs)
  | Point { name; t; attrs } ->
    Printf.sprintf {|{"ev":"point","name":%S,"t":%.9f,"attrs":%s}|} name t
      (attrs_to_json attrs)

let value_pretty = function
  | Int i -> string_of_int i
  | Size s -> Printf.sprintf "%dB" s
  | Duration s -> Printf.sprintf "%.6fs" s
  | Opcode o -> Printf.sprintf "0x%02x" o
  | Phase p -> phase_name p
  | Flag b -> string_of_bool b

let attrs_pretty attrs =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (value_pretty v)) attrs)

let event_pretty = function
  | Span_start { id; name; attrs; _ } ->
    Printf.sprintf "[telemetry] > %s #%d%s" name id (attrs_pretty attrs)
  | Span_end { id; name; dt; attrs; _ } ->
    Printf.sprintf "[telemetry] < %s #%d dt=%.6fs%s" name id dt (attrs_pretty attrs)
  | Point { name; attrs; _ } ->
    Printf.sprintf "[telemetry] . %s%s" name (attrs_pretty attrs)

(* --- sinks ---------------------------------------------------------------- *)

type sink = { emit : event -> unit; flush : unit -> unit }

(* Each record is flushed as one write: a SIGKILLed process loses at
   most the line being written (which Trace_reader.read_file_partial
   already tolerates), never a buffered tail of complete spans. *)
let jsonl_sink oc =
  {
    emit =
      (fun ev ->
        output_string oc (event_to_json ev);
        output_char oc '\n';
        flush oc);
    flush = (fun () -> flush oc);
  }

let pretty_sink oc =
  {
    emit =
      (fun ev ->
        output_string oc (event_pretty ev);
        output_char oc '\n');
    flush = (fun () -> flush oc);
  }

(* Registered sinks, each with its own level threshold.  [max_level]
   caches the most verbose threshold so disabled instrumentation sites
   cost one atomic load and an integer compare. *)
let sinks : (level * sink) list Atomic.t = Atomic.make []
let max_level = Atomic.make Quiet
let emit_mu = Mutex.create ()

let recompute_max () =
  let m =
    List.fold_left
      (fun acc (l, _) -> if level_rank l > level_rank acc then l else acc)
      Quiet (Atomic.get sinks)
  in
  Atomic.set max_level m

let clear_sinks () =
  let old = Atomic.get sinks in
  Atomic.set sinks [];
  Atomic.set max_level Quiet;
  List.iter (fun (_, s) -> try s.flush () with _ -> ()) old

let add_sink ?(level = Info) sink =
  Atomic.set sinks ((level, sink) :: Atomic.get sinks);
  recompute_max ()

let flush () = List.iter (fun (_, s) -> s.flush ()) (Atomic.get sinks)

let enabled level = level_rank level <= level_rank (Atomic.get max_level)

let emit level ev =
  Mutex.protect emit_mu (fun () ->
      List.iter
        (fun (threshold, s) ->
          if level_rank level <= level_rank threshold then s.emit ev)
        (Atomic.get sinks))

(* --- spans and events ----------------------------------------------------- *)

let next_id = Atomic.make 1

type span_handle = { id : int; name : string; t0 : float; live : bool }

let start ~name ?(attrs = []) () =
  if enabled Info then begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = now () in
    emit Info (Span_start { id; name; t = t0; attrs });
    { id; name; t0; live = true }
  end
  else { id = 0; name; t0 = 0.0; live = false }

let finish ?(attrs = []) h =
  if h.live then begin
    let t = now () in
    emit Info (Span_end { id = h.id; name = h.name; t; dt = t -. h.t0; attrs })
  end

let span ~name ?attrs f =
  let h = start ~name ?attrs () in
  match f () with
  | v ->
    finish h;
    v
  | exception e ->
    finish ~attrs:[ ("error", Flag true) ] h;
    raise e

let event ?(level = Info) ~name ?(attrs = []) () =
  if enabled level then emit level (Point { name; t = now (); attrs })

(* --- CLI convenience ------------------------------------------------------ *)

(* Shared flag plumbing for ppst_server / ppst_client / bench: [level]
   gates a human-readable (or, with [json], JSONL) stderr sink; a
   [trace_out] file always records at Debug so a trace is complete even
   under --log-level quiet. *)
let configure ?(level = "quiet") ?(json = false) ?trace_out () =
  clear_sinks ();
  let stderr_level = level_of_string level in
  if stderr_level <> Quiet then
    add_sink ~level:stderr_level
      (if json then jsonl_sink stderr else pretty_sink stderr);
  match trace_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    add_sink ~level:Debug (jsonl_sink oc);
    at_exit (fun () ->
        flush ();
        try close_out oc with Sys_error _ -> ())
