(** Analytic cost model of Atallah, Kerschbaum & Du, "Secure and private
    sequence comparisons" (WPES 2003) — the prior art the paper compares
    against in Sections 2.3 and 7.

    Their protocol shares the DP matrix additively between the parties
    and runs Yao's protocol inside a minimum-finding subroutine; the
    paper estimates [3·m·n·d²] Yao invocations, each costing at least
    1.25 s in Fairplay over a fast network (4 s slow).  The paper never
    runs Atallah's protocol either — it reports exactly this estimate
    ("at least 37000 seconds" at m = n = 100, d = 1), which we
    reproduce. *)

val yao_invocations : m:int -> n:int -> d:int -> int
(** [3 * m * n * d²]. *)

val fairplay_slow_seconds : float
(** 4 s per Yao invocation (slow network). *)

val estimated_seconds : ?per_call:float -> m:int -> n:int -> d:int -> unit -> float
(** Total estimated time; [per_call] defaults to 1.25 s per Yao
    invocation (Fairplay, fast network — paper §7). *)

val speedup_vs : measured_seconds:float -> m:int -> n:int -> d:int -> float
(** How many times faster a measured secure run is than the Atallah
    estimate — the paper's "at least three orders of magnitude" claim. *)
