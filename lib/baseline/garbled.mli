(** Rough cost model for a garbled-circuit realization of secure DTW —
    the approach the paper rules out in Section 2.3 (Huang et al. /
    Jha et al. compute {e edit distance} with cheap XOR equality gates;
    time-series distances need full adders and multipliers, blowing up
    the circuit).

    The model counts non-free (AND) gates with textbook circuit sizes:
    [b²] per [b]-bit multiplier, [b] per adder/comparator, and charges a
    per-gate garble+evaluate time.  It is deliberately optimistic (no
    communication, no oblivious transfers) — the point the paper makes
    survives even an optimistic model. *)

val and_gates : m:int -> n:int -> d:int -> bits:int -> int
(** Non-free gate count for the whole DTW circuit on [bits]-bit values. *)

val estimated_seconds : m:int -> n:int -> d:int -> bits:int -> unit -> float
(** {!and_gates} priced at 10 µs per non-free gate — an optimistic
    2014-era garbling figure. *)
