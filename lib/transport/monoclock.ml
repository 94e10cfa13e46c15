(* The monotonic clock is defined once, in Telemetry: deadlines compare
   instants on the same clock that times spans and session phases. *)

let now = Ppst_telemetry.Telemetry.now
