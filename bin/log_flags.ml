(* The logging and telemetry flags ppst_server and ppst_client share:
   -v sets Logs to debug; --log-level, --log-json and --trace-out
   configure the Ppst_telemetry sinks. *)

open Cmdliner

let configure verbose log_level log_json trace_out =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Info));
  Ppst_telemetry.Telemetry.configure ~level:log_level ~json:log_json ?trace_out ()

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.")

let log_level =
  Arg.(value & opt string "quiet" & info [ "log-level" ] ~docv:"quiet|info|debug"
         ~doc:"Telemetry stderr verbosity: spans and counters only (never protocol values).")

let log_json =
  Arg.(value & flag & info [ "log-json" ]
         ~doc:"Emit stderr telemetry as JSON lines instead of pretty text.")

let trace_out =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Append every telemetry event (debug level) as JSON lines to $(docv); read it back with ppst_analyze trace.")

(* Evaluating the term parses the four flags and installs the sinks,
   before the command's own function runs. *)
let setup = Term.(const configure $ verbose $ log_level $ log_json $ trace_out)
