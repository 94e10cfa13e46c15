(** OpenMetrics/Prometheus text rendering of the {!Metrics} registry.

    Every counter, gauge and histogram is rendered under a sanitized
    [ppst_]-prefixed name ([.] and other non-grammar characters become
    [_]), histograms with cumulative [le] buckets plus [_sum]/[_count].
    The process-wide {!Rollup.global} adds windowed deltas/rates and
    interpolated p50/p95/p99 as labelled gauges
    ([..._delta{window="60s"}], [..._p99{window="300s"}], [..._ewma]).

    The page exposes the same aggregate-only surface as [Stats_req]: names
    come from the closed instrumentation vocabulary and values are
    numbers, so no per-session or data-dependent strings can appear. *)

val render : unit -> string
(** Render the full page, terminated by [# EOF].  The global rollup is
    ticked before rendering. *)
