(* Clocks, and order statistics over timing samples. *)

let now = Ppst_transport.Monoclock.now

(* CPU seconds of this process (every thread and Domain, exited ones
   included) and of the calling thread.  Time stolen by the hypervisor
   is not counted, so on a shared host these read steadier than [now]. *)
external process_cpu : unit -> (float[@unboxed])
  = "ladder_process_cpu" "ladder_process_cpu_unboxed"
[@@noalloc]

external thread_cpu : unit -> (float[@unboxed])
  = "ladder_thread_cpu" "ladder_thread_cpu_unboxed"
[@@noalloc]

(* Pins this process, and every thread and child it starts later, to
   the lowest CPU it may run on; that CPU, or -1 on failure. *)
external pin_first_cpu : unit -> int = "ladder_pin_first_cpu"

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let percentile p xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* Peak resident set of this process in KiB, from /proc/self/status. *)
let vm_hwm_kib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan
