(* A reported number, and the JSON object every run ends with. *)

type t = { name : string; value : float; unit : string }

let make name unit value = { name; value; unit }

let print_table ms =
  List.iter (fun mt -> Printf.printf "  %-40s %16.6f %s\n" mt.name mt.value mt.unit) ms

(* A NaN or an infinity means something went unmeasured (an empty
   sample, a missing rung), and so does a 0 among the end-to-end metrics
   ([zero]), which are nonzero by design.  The run counts each such
   metric as a failed operation.  A per-layer wait, such as the time a
   client blocked on a background refill, may truly be 0. *)
let unmeasured ~zero ms =
  List.filter (fun mt -> (zero && mt.value = 0.0) || not (Float.is_finite mt.value)) ms

(* The last line of stdout: {"correct", "attempted", "failed", "metrics"}. *)
let print_result ~attempted ~failed ms =
  let body =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
          (if Float.is_finite mt.value then Printf.sprintf "%.17g" mt.value else "null")
          mt.unit)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " body)
