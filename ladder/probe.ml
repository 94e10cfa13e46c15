(* A speed probe for a shared host.

   The vCPUs of a shared host run at a speed that moves with what the
   neighbours on the same physical cores do.  A fixed kernel's CPU time
   swings up to twofold from one millisecond to the next, and its average
   drifts by tens of percent over minutes, so CPU time alone does not
   compare runs made minutes apart.

   The probe runs a fixed slice of work at points spread through an
   operation and rescales the operation's CPU time by how long the slices
   took.  A slice is a chain of Montgomery products of 1024-bit vectors
   of 31-bit limbs, each into a fresh array, the way the library's
   arithmetic works; the code here is the benchmark's own, so no change to
   the library moves it.  [rescale] gives CPU seconds at the reference
   speed, the speed at which one slice takes [nominal_s] (about this kind
   of host with no neighbour competing). *)

let limbs = 34
let mask = (1 lsl 31) - 1
let a = Array.init limbs (fun i -> ((i * 7919) + 13) land mask)
let b = Array.init limbs (fun i -> ((i * 104729) + 7) land mask)
let m = Array.init limbs (fun i -> (((i * 31337) + 1) lor 1) land mask)

(* The work of one Montgomery product of [x] and [y] mod [m]: a
   multiply-accumulate row and a reduction row per limb.  Only the work
   matters; the reduction multiplier is a fixed constant, not -m^-1, so
   the result is not the product, but its limbs stay below 2^31 and every
   intermediate fits a native int, as in the library:
   (2^31 - 1)^2 + 2 (2^31 - 1) < 2^62. *)
let mont_mul x y =
  let t = Array.make (limbs + 2) 0 in
  for i = 0 to limbs - 1 do
    let xi = x.(i) and c = ref 0 in
    for j = 0 to limbs - 1 do
      let s = t.(j) + (xi * y.(j)) + !c in
      t.(j) <- s land mask;
      c := s lsr 31
    done;
    let s = t.(limbs) + !c in
    t.(limbs) <- s land mask;
    t.(limbs + 1) <- s lsr 31;
    let q = (t.(0) * 0x2468ace) land mask in
    let c = ref ((t.(0) + (q * m.(0))) lsr 31) in
    for j = 1 to limbs - 1 do
      let s = t.(j) + (q * m.(j)) + !c in
      t.(j - 1) <- s land mask;
      c := s lsr 31
    done;
    let s = t.(limbs) + !c in
    t.(limbs - 1) <- s land mask;
    t.(limbs) <- t.(limbs + 1) + (s lsr 31);
    t.(limbs + 1) <- 0
  done;
  Array.sub t 0 limbs

let products_per_slice = 100

let slice () =
  let x = ref a in
  for _ = 1 to products_per_slice do
    x := mont_mul !x b
  done;
  ignore (Sys.opaque_identity !x)

(* CPU seconds of one slice at the reference speed. *)
let nominal_s = 4e-4

(* CPU seconds of the calling thread after a slice before [tick] takes
   the next: about 2.5% of a probed thread's time goes to slices. *)
let interval_s = 0.015

(* The slices taken for one operation: their CPU seconds, their count,
   and when (on the taking thread's CPU clock) the next one is due. *)
type t = { mutable spent : float; mutable slices : int; mutable due : float }

let create () = { spent = 0.0; slices = 0; due = neg_infinity }

let take p =
  let c0 = Summary.thread_cpu () in
  slice ();
  let c1 = Summary.thread_cpu () in
  p.spent <- p.spent +. (c1 -. c0);
  p.slices <- p.slices + 1;
  p.due <- c1 +. interval_s

let burst p n =
  for _ = 1 to n do
    take p
  done

(* A slice if one is due: called at points spread through an operation
   (every request a server handles). *)
let tick p = if Summary.thread_cpu () >= p.due then take p

(* The speed [p]'s slices ran at, as a multiple of the reference speed. *)
let speed p = if p.slices = 0 then nan else nominal_s *. float_of_int p.slices /. p.spent

(* [cpu] seconds measured alongside [p]'s slices, at the reference speed. *)
let rescale p cpu = cpu *. speed p
