#!/bin/sh
# CI entry point: full build, the complete test suite, a sanitizer
# build of the Montgomery kernel's tests, and a sub-second smoke bench
# that (a) runs one seeded wavefront-DTW session at pool
# sizes 1 and 4, cross-checks the plaintext distance and asserts the two
# transcripts are identical (the lib/parallel determinism contract), and
# (b) serves two concurrent TCP sessions through Server_loop with a
# seeded key and a tiny series, cross-checking both revealed distances
# (the concurrent-server correctness contract).  The same smoke also
# exercises the crypto hot path: a seeded session with the offline
# noise pool on and off must hash to the same transcript bytes, and a
# packed+pooled session must reveal the baseline distance with zero
# pool misses (an offline run that silently pays online
# exponentiations fails CI).
#
# The smoke run records a JSONL telemetry trace, which is then (c) linted
# through ppst_analyze (closed attribute vocabulary — telemetry must not
# be able to carry plaintexts, offsets or ciphertexts) plus a belt-and-
# braces grep for anything bignum-sized leaking into the trace.
#
# (d) a chaos smoke: the same client/server pair is run once
# clean and twice against a server whose frame path hard-drops the
# connection every 64 frames (--chaos-profile drop-every-64), once
# single-process and once as a 2-worker supervised server, where every
# Resume must be routed back to the worker that parks the session; the
# retry + resume machinery must repair every cut, the three revealed
# distances must be identical, and all three servers must print the same
# closed-form crypto-op totals at exit (the 2-worker one summed from its
# workers' drain reports).  Then a 2-worker server whose every third
# descriptor allocation fails (--disk-chaos emfile-every-3) serves three
# clients, and its exit summary must count every Busy they were sent,
# the supervisor's own sheds included.  (The codec corruption fuzz and the
# per-frame-index disconnect matrix run inside `dune runtest` —
# test/test_resilience.ml.)
#
# (e) an overload smoke: a capacity-2 server with admission
# quotas takes a 6-client burst — every client must still reveal the
# correct distance (Busy + retry-after absorbs the overflow), the
# health probe must answer before and after the burst, and an
# oversized session must be turned away with a typed quota verdict
# before any Paillier work.
#
# (f) observability: two recordings of the same seed, each three
# smoke runs' traces concatenated, must diff clean while a doctored
# 2x-latency copy must be flagged; a
# truncated trace tail is reported with its own exit code; the catalog
# smoke runs with the metrics sidecar up and the exposition page (the
# HTTP endpoint, the in-protocol metrics verb and the stats verb, which
# prints the resume table first) must carry the server-side families;
# and the ladder smoke (`bash ladder/run.sh
# smoke`) runs every benchmark workload and rung at toy size and checks
# each emits exactly the metrics BENCHMARK.json names; then
# scripts/compare.sh judges a saved log of paired ladder runs by the
# ladder's comparison rule, and doctored copies of it must be refused.
#
# (g) a failover smoke: a 4-worker supervised server with a
# shared session spool serves one session whose worker is SIGKILLed
# mid-stream from outside; the client must ride the reconnect + Resume
# path onto a surviving worker (the dead worker's memory is gone — the
# session rehydrates from the spool), the revealed distance must be
# bit-identical to a single-process reference run of the same seeds,
# and the supervisor must report exactly one restart.
#
# Finally (h) a degraded smoke: the same 4-worker catalog server with
# every spool write failing ENOSPC (--disk-chaos enospc-every-1) serves
# a complete catalog query — full results, zero incomplete candidates,
# zero worker crashes — while the health probe reports status 3
# (degraded: serving, crash-durability lost).
#
# The sanitizer step rebuilds test_bigint, test_paillier, test_golden,
# test_engine, test_overload and test_session_machine under the
# `sanitize` profile (the root dune file: C stubs compiled with -Wall
# -Wextra -Werror and -fsanitize=address,undefined, no recovery) in its
# own build directory, _build_sanitize, so the default build is left
# alone, and runs them.  It catches a warning in any C stub, an
# out-of-bounds access to the kernel's own scratch memory and undefined
# behaviour in lib/bigint/mont_stubs.c: its products, squares and
# powers, its binary GCD, (through test_engine's packed axes) its
# inverse modulo n^2, and its Paillier entries.  Validation and CRT
# decryption read attacker-chosen values there, so test_overload and
# test_session_machine push 0, n, 2n, out-of-range and random
# ciphertexts through Server.handle under the sanitizers too.  ASan
# cannot see a read past the end of an OCaml block; the stubs' width
# check covers that.  Leak detection is off: the OCaml runtime does not
# free its heap at exit.
#
# First of all, a source check keeps one source of Domains: under lib/
# and bin/, only Pool.create (lib/parallel/pool.ml) may call
# Domain.spawn.  Its lanes are sized by --jobs and bound by the pool's
# determinism contract; a Domain spawned anywhere else would escape
# both.  bench/'s concurrency smoke spawns Domains on purpose and is not
# checked.
#
# A second source check keeps one connection intake: under lib/ and
# bin/, Unix.bind, Unix.listen, Unix.accept and Unix.pipe may appear
# only in lib/transport/channel.ml, whose listen, take, shed and stop
# steps every server socket goes through (Server_loop, Supervisor,
# Metrics_endpoint), so fd exhaustion, a failed accept and a stop
# (the intake's self-pipe is the one wake-up) are handled one way.
# test/ and bench/ open their own sockets and are not checked.
set -eu
cd "$(dirname "$0")/.."

spawners="$(grep -rl 'Domain\.spawn' lib bin | grep -vx 'lib/parallel/pool.ml' || true)"
if [ -n "$spawners" ]; then
  echo "ci: Domain.spawn outside lib/parallel/pool.ml:" $spawners >&2
  exit 1
fi
echo "ci: one source of Domains (lib/parallel/pool.ml) OK"

intakes="$(grep -rlE 'Unix\.(bind|listen|accept|pipe)' lib bin | grep -vx 'lib/transport/channel.ml' || true)"
if [ -n "$intakes" ]; then
  echo "ci: Unix.bind/listen/accept/pipe outside lib/transport/channel.ml:" $intakes >&2
  exit 1
fi
echo "ci: one connection intake (lib/transport/channel.ml) OK"

dune build @all
dune runtest

dune build --profile sanitize --build-dir _build_sanitize \
  ./test/test_bigint.exe ./test/test_paillier.exe ./test/test_golden.exe \
  ./test/test_engine.exe ./test/test_overload.exe \
  ./test/test_session_machine.exe
# --verbose leaves test output uncaptured, so a sanitizer report reaches
# stderr instead of an alcotest log file.
for suite in test_bigint test_paillier test_golden test_engine test_overload \
    test_session_machine; do
  if ! ASAN_OPTIONS=detect_leaks=0 "./_build_sanitize/default/test/$suite.exe" \
      --compact --verbose >/dev/null; then
    echo "ci: sanitizer build FAILED in $suite" >&2
    exit 1
  fi
done
echo "ci: sanitizer build of the Montgomery kernel's tests OK"

trace="$(mktemp /tmp/ppst_ci_trace.XXXXXX.jsonl)"
trace2=""
doctored=""
chaos_dir="$(mktemp -d /tmp/ppst_ci_chaos.XXXXXX)"
trap 'rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir"' EXIT INT TERM

dune exec bench/main.exe -- smoke --log-json --trace-out "$trace"

# Telemetry smoke: the trace must be non-empty, valid JSONL, and pass the
# leakage lint (only whitelisted strings, no numbers beyond count/size/
# duration magnitude).
test -s "$trace"
dune exec bin/ppst_analyze.exe -- trace "$trace" --lint
# Nothing bignum-sized may ever appear in a trace (a Paillier ciphertext,
# masked sum or offset would be hundreds of digits; honest counters stay
# well under 17).
if grep -E '[0-9]{17}' "$trace"; then
  echo "ci: leakage lint FAILED: oversized number in telemetry trace" >&2
  exit 1
fi
echo "ci: telemetry trace lint OK ($(wc -l < "$trace") records)"

# Regression diff: a second recording of the same seed must diff clean
# against the first (byte counts repeat exactly; latency floors absorb
# scheduler noise), and a copy of the first whose span and round
# latencies are doubled must be flagged.
trace2="$(mktemp /tmp/ppst_ci_trace2.XXXXXX.jsonl)"
doctored="$(mktemp /tmp/ppst_ci_doctored.XXXXXX.jsonl)"
trap 'rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir"' EXIT INT TERM
# The 50ms floor keeps sub-50ms span jitter (scheduler noise on a
# loaded CI host) out of the verdict, so a doubled span trips it only if
# its total exceeds 50 ms.  One smoke's DTW span (dp.dtw) totals 35-55 ms
# on a 2-vCPU host, too close to the floor, and shrinks as the client
# gets faster, so the first recording appends smoke runs (the first
# trace is its first) until its DTW span totals at least three times
# the floor, at most eight runs; the second recording takes as many
# fresh runs.  The doctored copy then trips the floor through that span.
floor_ms=50
append_smoke() {
  dune exec bench/main.exe -- smoke --log-json \
    --trace-out "$chaos_dir/smoke-run.jsonl" >/dev/null
  cat "$chaos_dir/smoke-run.jsonl" >> "$1"
}
dtw_span_ms() {
  python3 - "$1" <<'PYEOF'
import json, sys
total = 0.0
with open(sys.argv[1]) as src:
    for line in src:
        line = line.strip()
        if line:
            o = json.loads(line)
            if o.get("name") == "dp.dtw" and isinstance(o.get("dt"), (int, float)):
                total += o["dt"]
print(int(total * 1000))
PYEOF
}
runs=1
while [ "$(dtw_span_ms "$trace")" -lt $((3 * floor_ms)) ] && [ "$runs" -lt 8 ]; do
  append_smoke "$trace"
  runs=$((runs + 1))
done
for _ in $(seq "$runs"); do
  append_smoke "$trace2"
done
echo "ci: regression diff over $runs smoke runs per recording (first recording's DTW span: $(dtw_span_ms "$trace") ms)"
dune exec bin/ppst_analyze.exe -- diff "$trace" "$trace2" --latency-floor-ms "$floor_ms"
python3 - "$trace" "$doctored" <<'PYEOF'
import json, sys
def double(o):
    if isinstance(o, dict):
        return {k: (v * 2 if k in ("dt", "latency_s") and isinstance(v, (int, float))
                    else double(v)) for k, v in o.items()}
    if isinstance(o, list):
        return [double(v) for v in o]
    return o
with open(sys.argv[1]) as src, open(sys.argv[2], "w") as dst:
    for line in src:
        line = line.strip()
        if line:
            dst.write(json.dumps(double(json.loads(line))) + "\n")
PYEOF
diff_rc=0
dune exec bin/ppst_analyze.exe -- diff "$trace" "$doctored" --latency-floor-ms "$floor_ms" \
  >/dev/null 2>&1 || diff_rc=$?
if [ "$diff_rc" -ne 1 ]; then
  echo "ci: regression diff FAILED: doctored 2x slowdown not flagged (exit $diff_rc)" >&2
  exit 1
fi
echo "ci: regression diff OK (same seed quiet, doctored 2x slowdown flagged)"

# A trace whose final line was cut mid-record (crashed writer, partial
# copy) is linted on the complete prefix and reported with exit 3, not
# a parse abort.
total_bytes="$(wc -c < "$trace")"
head -c "$((total_bytes - 20))" "$trace" > "$doctored"
trunc_rc=0
dune exec bin/ppst_analyze.exe -- trace "$doctored" --lint \
  >/dev/null 2>&1 || trunc_rc=$?
if [ "$trunc_rc" -ne 3 ]; then
  echo "ci: truncated-tail FAILED: want exit 3, got $trunc_rc" >&2
  exit 1
fi
echo "ci: truncated trace tail reported with exit 3"

# Ladder smoke: the benchmark of record (ladder/README.md) still builds,
# drives every workload with tracing off and on, and emits exactly the
# metrics BENCHMARK.json declares.
bash ladder/run.sh smoke >/dev/null
echo "ci: ladder smoke OK"

# The ladder's comparison rule, judged from a saved log without running
# anything (scripts/compare.sh --from): eleven real pair-packed pairs of
# a parent and a change read as a server_cpu_s gain with no regression;
# the same log with the change's session_cpu_s doubled must read as a
# regression, and with one change run failed must be refused, each
# exiting 1.
compare_fixture=scripts/compare_fixture.jsonl
bash scripts/compare.sh --from "$compare_fixture" >"$chaos_dir/compare.out"
if ! grep -Eq '^  server_cpu_s .* gain$' "$chaos_dir/compare.out"; then
  cat "$chaos_dir/compare.out" >&2
  echo "ci: compare FAILED: the fixture's server_cpu_s gain was not found" >&2
  exit 1
fi
python3 - "$compare_fixture" "$chaos_dir" <<'PYEOF'
import json, sys
runs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
for name in ("slower", "failed"):
    doctored = json.loads(json.dumps(runs))
    change = [r for r in doctored if r["side"] == "change"]
    if name == "slower":
        for r in change:
            r["result"]["metrics"]["session_cpu_s"]["value"] *= 2
    else:
        change[-1]["exit"], change[-1]["result"]["failed"] = 1, 1
    with open(f"{sys.argv[2]}/compare-{name}.jsonl", "w") as out:
        out.writelines(json.dumps(r) + "\n" for r in doctored)
PYEOF
for doctored in 'slower:^  session_cpu_s .* regression$' 'failed:^  FAILED: pair'; do
  compare_rc=0
  bash scripts/compare.sh --from "$chaos_dir/compare-${doctored%%:*}.jsonl" \
    >"$chaos_dir/compare.out" || compare_rc=$?
  if [ "$compare_rc" -ne 1 ] || ! grep -Eq "${doctored#*:}" "$chaos_dir/compare.out"; then
    cat "$chaos_dir/compare.out" >&2
    echo "ci: compare FAILED: the ${doctored%%:*} change was not refused (exit $compare_rc)" >&2
    exit 1
  fi
done
echo "ci: comparison rule OK (gain read; doubled cost and failed run refused)"

# Chaos smoke: clean run vs a fault-injected server; distances must match.
./_build/default/bin/ppst_datagen.exe --seed 4101 -n 12 "$chaos_dir/y.csv"
./_build/default/bin/ppst_datagen.exe --seed 4102 -n 12 "$chaos_dir/x.csv"

chaos_session() {
  # $1 = port; remaining args = extra server flags.  Prints the distance.
  port="$1"; shift
  ./_build/default/bin/ppst_server.exe -p "$port" --seed ci-chaos "$@" \
    "$chaos_dir/y.csv" >"$chaos_dir/server-$port.log" 2>&1 &
  server_pid=$!
  sleep 1
  ./_build/default/bin/ppst_client.exe pair -p "$port" --seed ci-chaos-client \
    "$chaos_dir/x.csv" >"$chaos_dir/client-$port.log" 2>&1 || true
  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  sed -n 's/^secure DTW distance.*= //p' "$chaos_dir/client-$port.log"
}

clean_distance="$(chaos_session 17971)"
chaos_distance="$(chaos_session 17972 --chaos-profile drop-every-64 --chaos-seed 7)"
workers_distance="$(chaos_session 17973 --workers 2 --chaos-profile drop-every-64 --chaos-seed 7)"
if [ -z "$clean_distance" ] || [ "$clean_distance" != "$chaos_distance" ] \
    || [ "$clean_distance" != "$workers_distance" ]; then
  echo "ci: chaos smoke FAILED: clean='$clean_distance' chaos='$chaos_distance' workers='$workers_distance'" >&2
  cat "$chaos_dir"/client-*.log "$chaos_dir"/server-*.log >&2 || true
  exit 1
fi
# Every server must report the session's crypto work at exit: for 12x12,
# d = 1, k = 10 row-major DTW that is n(d+1) + (m-1)(n-1) encryptions and
# (m-1)(n-1)(k+2) + 1 decryptions; a resumed round is replayed, not
# recomputed, so the chaos run counts the same.
for port in 17971 17972 17973; do
  if ! grep -qx 'crypto ops: 145 encryptions, 1453 decryptions, 0 homomorphic' \
      "$chaos_dir/server-$port.log"; then
    echo "ci: chaos smoke FAILED: server on port $port misreports its crypto ops" >&2
    cat "$chaos_dir/server-$port.log" >&2 || true
    exit 1
  fi
done
echo "ci: chaos smoke OK (distance $chaos_distance, clean = drop-every-64 = 2 workers, crypto ops counted)"

# Busy accounting under --workers: with every third descriptor
# allocation failing, both the supervisor (on its accepts) and the
# workers (on the connections passed to them) shed connections with
# Busy.  The exit summary's rejected count must equal the Busy retries
# three sequential clients logged, the supervisor's own sheds included.
busy_port=17980
./_build/default/bin/ppst_server.exe -p "$busy_port" --seed ci-busy --workers 2 \
  --disk-chaos emfile-every-3 "$chaos_dir/y.csv" >"$chaos_dir/server-busy.log" 2>&1 &
busy_pid=$!
trap 'kill "$busy_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir"' EXIT INT TERM
sleep 1
for i in 1 2 3; do
  if ! ./_build/default/bin/ppst_client.exe pair -p "$busy_port" --seed "ci-busy-$i" \
      "$chaos_dir/x.csv" >"$chaos_dir/busy-$i.log" 2>&1; then
    echo "ci: Busy summary FAILED: client $i did not complete" >&2
    cat "$chaos_dir/busy-$i.log" "$chaos_dir/server-busy.log" >&2 || true
    exit 1
  fi
done
kill "$busy_pid" 2>/dev/null || true
wait "$busy_pid" 2>/dev/null || true
logged="$(cat "$chaos_dir"/busy-*.log | grep -c 'failed (Ppst_transport.Channel.Busy' || true)"
printed="$(sed -n 's/^sessions: [0-9]* accepted, \([0-9]*\) rejected (Busy).*/\1/p' "$chaos_dir/server-busy.log")"
if [ "$logged" -eq 0 ] || [ "$printed" != "$logged" ]; then
  echo "ci: Busy summary FAILED: server printed '$printed' rejected (Busy), clients logged $logged Busy retries" >&2
  cat "$chaos_dir"/busy-*.log "$chaos_dir/server-busy.log" >&2 || true
  exit 1
fi
echo "ci: --workers Busy summary OK ($printed rejected = $logged client Busy retries)"

# Overload smoke: capacity 2, quotas sized to admit the honest series
# with headroom, 6 concurrent clients.
overload_port=17973
./_build/default/bin/ppst_server.exe -p "$overload_port" --seed ci-overload \
  --concurrency 2 --max-series-len 64 --max-dim 4 --max-cells 4096 \
  "$chaos_dir/y.csv" >"$chaos_dir/server-overload.log" 2>&1 &
overload_pid=$!
trap 'kill "$overload_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir"' EXIT INT TERM
sleep 1

./_build/default/bin/ppst_client.exe health -p "$overload_port" \
  >"$chaos_dir/health-before.log"
grep -q '^status: ready$' "$chaos_dir/health-before.log"

burst_pids=""
for i in 1 2 3 4 5 6; do
  ./_build/default/bin/ppst_client.exe pair -p "$overload_port" \
    --seed "ci-overload-$i" --retries 100 "$chaos_dir/x.csv" \
    >"$chaos_dir/burst-$i.log" 2>&1 &
  burst_pids="$burst_pids $!"
done
wait_failed=0
for job in $burst_pids; do
  wait "$job" || wait_failed=1
done
if [ "$wait_failed" -ne 0 ]; then
  echo "ci: overload smoke FAILED: a burst client did not complete" >&2
  cat "$chaos_dir"/burst-*.log "$chaos_dir/server-overload.log" >&2 || true
  exit 1
fi
for i in 1 2 3 4 5 6; do
  burst_distance="$(sed -n 's/^secure DTW distance.*= //p' "$chaos_dir/burst-$i.log")"
  if [ -z "$burst_distance" ] || [ "$burst_distance" != "$clean_distance" ]; then
    echo "ci: overload smoke FAILED: client $i distance '$burst_distance' != '$clean_distance'" >&2
    cat "$chaos_dir/burst-$i.log" "$chaos_dir/server-overload.log" >&2 || true
    exit 1
  fi
done

# The probe still answers once the burst drains, and the serving path
# turned clients away at least once while it was full.
./_build/default/bin/ppst_client.exe health -p "$overload_port" \
  >"$chaos_dir/health-after.log"
grep -q '^status:' "$chaos_dir/health-after.log"

kill "$overload_pid" 2>/dev/null || true
wait "$overload_pid" 2>/dev/null || true

# An oversized declaration is refused with a typed quota verdict before
# any Paillier work — not a crash, not a hung session.
tight_port=17974
./_build/default/bin/ppst_server.exe -p "$tight_port" --seed ci-overload-tight \
  --max-series-len 4 "$chaos_dir/y.csv" >"$chaos_dir/server-tight.log" 2>&1 &
tight_pid=$!
trap 'kill "$tight_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir"' EXIT INT TERM
sleep 1
rejected=0
./_build/default/bin/ppst_client.exe pair -p "$tight_port" \
  --seed ci-overload-hostile "$chaos_dir/x.csv" \
  >"$chaos_dir/hostile.log" 2>&1 || rejected=$?
kill "$tight_pid" 2>/dev/null || true
wait "$tight_pid" 2>/dev/null || true
if [ "$rejected" -ne 69 ] || ! grep -q 'series-len quota' "$chaos_dir/hostile.log"; then
  echo "ci: overload smoke FAILED: oversized session not quota-rejected (exit $rejected)" >&2
  cat "$chaos_dir/hostile.log" "$chaos_dir/server-tight.log" >&2 || true
  exit 1
fi
echo "ci: overload smoke OK (6/6 burst distances correct, oversized session quota-rejected)"

# Catalog smoke: a seeded 20-record catalog server; the pruned top-1 of
# `query` must equal the exhaustive nearest of the `pair --search` scan
# (the no-false-dismissal contract, end to end over TCP), a
# within-radius Euclidean query must actually prune, and an oversized
# query declaration must be quota-rejected with exit 69 before any
# Paillier work.
cat_dir="$(mktemp -d /tmp/ppst_ci_catalog.XXXXXX)"
trap 'kill "$tight_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir" "$cat_dir"' EXIT INT TERM
mkdir "$cat_dir/store"
i=0
while [ "$i" -lt 20 ]; do
  ./_build/default/bin/ppst_datagen.exe -t ecg -n 12 --max-value 40 \
    --seed $((i + 1)) "$cat_dir/store/rec$(printf %02d "$i").csv"
  i=$((i + 1))
done >/dev/null
# the query series is record 6's twin, so the true nearest is known
./_build/default/bin/ppst_datagen.exe -t ecg -n 12 --max-value 40 \
  --seed 7 "$cat_dir/query.csv" >/dev/null

catalog_port=17975
./_build/default/bin/ppst_server.exe -p "$catalog_port" --seed ci-catalog \
  --catalog "$cat_dir/store" --sessions 12 --metrics-port 0 \
  >"$cat_dir/server.log" 2>&1 &
catalog_pid=$!
trap 'kill "$catalog_pid" 2>/dev/null || true; kill "$tight_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir" "$cat_dir"' EXIT INT TERM
# A fixed sleep flakes on a loaded host: poll the health probe until the
# listener is up (or give up and dump the server log).
ready=0
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  if ./_build/default/bin/ppst_client.exe health -p "$catalog_port" \
       >/dev/null 2>&1; then
    ready=1
    break
  fi
  sleep 0.5
done
if [ "$ready" -ne 1 ]; then
  echo "ci: catalog smoke FAILED: server never became ready on port $catalog_port" >&2
  cat "$cat_dir/server.log" >&2 || true
  exit 1
fi

./_build/default/bin/ppst_client.exe catalog -p "$catalog_port" \
  >"$cat_dir/list.log"
if [ "$(wc -l < "$cat_dir/list.log")" -ne 20 ]; then
  echo "ci: catalog smoke FAILED: catalog list has $(wc -l < "$cat_dir/list.log") rows, want 20" >&2
  exit 1
fi

./_build/default/bin/ppst_client.exe query -p "$catalog_port" \
  --seed ci-catalog-q --distance dtw --top 1 "$cat_dir/query.csv" \
  >"$cat_dir/query.log" 2>&1
pruned_top1="$(sed -n 's/^hit: record \([0-9]*\).*/\1/p' "$cat_dir/query.log")"

./_build/default/bin/ppst_client.exe pair -p "$catalog_port" \
  --seed ci-catalog-s --distance dtw --search "$cat_dir/query.csv" \
  >"$cat_dir/scan.log" 2>&1
exhaustive_top1="$(sed -n 's/^nearest: record \([0-9]*\).*/\1/p' "$cat_dir/scan.log")"

if [ -z "$pruned_top1" ] || [ "$pruned_top1" != "$exhaustive_top1" ] || [ "$pruned_top1" != "6" ]; then
  echo "ci: catalog smoke FAILED: pruned top-1 '$pruned_top1' != exhaustive '$exhaustive_top1' (want 6)" >&2
  cat "$cat_dir/query.log" "$cat_dir/scan.log" "$cat_dir/server.log" >&2 || true
  exit 1
fi

# The scan prints one `record i:` line per record in catalog order, and
# its nearest is the smallest of them (ties to the lower index).
scan_indices="$(sed -n 's/^record \([0-9]*\): distance [0-9]*$/\1/p' "$cat_dir/scan.log" | tr '\n' ' ')"
smallest="$(sed -n 's/^record \([0-9]*\): distance \([0-9]*\)$/\2 \1/p' "$cat_dir/scan.log" \
  | sort -n -k1,1 -k2,2 | head -n 1)"
nearest="$(sed -n 's/^nearest: record \([0-9]*\) (distance \([0-9]*\))$/\2 \1/p' "$cat_dir/scan.log")"
if [ "$scan_indices" != "$(seq 0 19 | tr '\n' ' ')" ] || [ -z "$nearest" ] || [ "$smallest" != "$nearest" ]; then
  echo "ci: catalog smoke FAILED: scan record lines '$scan_indices' / nearest '$nearest' (smallest '$smallest')" >&2
  cat "$cat_dir/scan.log" >&2 || true
  exit 1
fi

# The pruning stage must earn its keep: a tight Euclidean radius around
# the twin record discards most of the catalog without losing the hit.
./_build/default/bin/ppst_client.exe query -p "$catalog_port" \
  --seed ci-catalog-w --distance euclidean --within 50 "$cat_dir/query.csv" \
  >"$cat_dir/within.log" 2>&1
grep -q '^hit: record 6 ' "$cat_dir/within.log"
pruned_n="$(sed -n 's/^catalog: [0-9]* candidate(s), \([0-9]*\) pruned.*/\1/p' "$cat_dir/within.log")"
if [ -z "$pruned_n" ] || [ "$pruned_n" -lt 10 ]; then
  echo "ci: catalog smoke FAILED: within-radius query pruned only '$pruned_n' of 20" >&2
  cat "$cat_dir/within.log" "$cat_dir/server.log" >&2 || true
  exit 1
fi

# Metrics endpoint scrape while the catalog server is live: the sidecar
# (bound to an ephemeral port, announced on stdout) and the in-protocol
# metrics verb must both expose the server-side families (the query.*
# and ledger.* families live in the querying client's registry and are
# asserted by test/test_catalog.ml, "query values"), and the page must
# be a complete OpenMetrics document.
metrics_port="$(sed -n 's/^metrics port: //p' "$cat_dir/server.log")"
if [ -z "$metrics_port" ]; then
  echo "ci: observability smoke FAILED: server did not announce a metrics port" >&2
  cat "$cat_dir/server.log" >&2 || true
  exit 1
fi
curl -sf "http://127.0.0.1:$metrics_port/metrics" >"$cat_dir/scrape.txt"
./_build/default/bin/ppst_client.exe metrics -p "$catalog_port" \
  >"$cat_dir/metrics-verb.txt"
# The stats verb prints the resume table ahead of the same page.  Every
# connection counts toward --sessions 12, probes included: one health
# probe, catalog, two queries, the scan, metrics and stats make seven.
./_build/default/bin/ppst_client.exe stats -p "$catalog_port" \
  >"$cat_dir/stats-verb.txt"
if ! head -1 "$cat_dir/stats-verb.txt" | grep -q '^# resume table$'; then
  echo "ci: observability smoke FAILED: stats page does not open with the resume table" >&2
  head -5 "$cat_dir/stats-verb.txt" >&2 || true
  exit 1
fi
for page in "$cat_dir/scrape.txt" "$cat_dir/metrics-verb.txt" "$cat_dir/stats-verb.txt"; do
  for family in ppst_server_sessions_accepted ppst_server_sessions_completed \
                ppst_transport_rounds ppst_metrics_endpoint_scrapes; do
    if ! grep -q "^$family" "$page"; then
      echo "ci: observability smoke FAILED: $page lacks $family" >&2
      head -40 "$page" >&2 || true
      exit 1
    fi
  done
  if ! tail -1 "$page" | grep -q '^# EOF'; then
    echo "ci: observability smoke FAILED: $page is not EOF-terminated" >&2
    exit 1
  fi
done
echo "ci: observability smoke OK (endpoint, metrics and stats verbs expose the server families)"

kill "$catalog_pid" 2>/dev/null || true
wait "$catalog_pid" 2>/dev/null || true

# Oversized query declaration: 20 candidates x (8 segments + 1) = 180
# cells against a 150-cell budget is refused with the typed verdict.
tight_cat_port=17976
./_build/default/bin/ppst_server.exe -p "$tight_cat_port" --seed ci-catalog-t \
  --catalog "$cat_dir/store" --max-cells 150 --sessions 1 \
  >"$cat_dir/server-tight.log" 2>&1 &
tight_cat_pid=$!
trap 'kill "$tight_cat_pid" 2>/dev/null || true; kill "$catalog_pid" 2>/dev/null || true; kill "$tight_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir" "$cat_dir"' EXIT INT TERM
sleep 1
rejected=0
./_build/default/bin/ppst_client.exe query -p "$tight_cat_port" \
  --seed ci-catalog-h --distance dtw --top 1 "$cat_dir/query.csv" \
  >"$cat_dir/oversize.log" 2>&1 || rejected=$?
kill "$tight_cat_pid" 2>/dev/null || true
wait "$tight_cat_pid" 2>/dev/null || true
if [ "$rejected" -ne 69 ] || ! grep -q 'cells quota' "$cat_dir/oversize.log"; then
  echo "ci: catalog smoke FAILED: oversized query not quota-rejected (exit $rejected)" >&2
  cat "$cat_dir/oversize.log" "$cat_dir/server-tight.log" >&2 || true
  exit 1
fi
echo "ci: catalog smoke OK (pruned top-1 = exhaustive top-1 = record 6, $pruned_n/20 pruned within radius, oversized query quota-rejected)"

# Failover smoke: 4 supervised workers, one SIGKILLed mid-session.
fo_dir="$(mktemp -d /tmp/ppst_ci_failover.XXXXXX)"
trap 'kill "$tight_cat_pid" 2>/dev/null || true; kill "$catalog_pid" 2>/dev/null || true; kill "$tight_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir" "$cat_dir" "$fo_dir"' EXIT INT TERM
# 64 points keeps the session around 2 s at the default key size, so an
# external kill 0.7 s in lands reliably mid-stream.
./_build/default/bin/ppst_datagen.exe --seed 4201 -n 64 "$fo_dir/y.csv" >/dev/null
./_build/default/bin/ppst_datagen.exe --seed 4202 -n 64 "$fo_dir/x.csv" >/dev/null

# Single-process reference run of the same seeds.
ref_port=17977
./_build/default/bin/ppst_server.exe -p "$ref_port" --seed ci-failover \
  "$fo_dir/y.csv" >"$fo_dir/server-ref.log" 2>&1 &
ref_pid=$!
sleep 1
./_build/default/bin/ppst_client.exe pair -p "$ref_port" --seed ci-failover-client \
  "$fo_dir/x.csv" >"$fo_dir/client-ref.log" 2>&1
kill "$ref_pid" 2>/dev/null || true
wait "$ref_pid" 2>/dev/null || true
ref_distance="$(sed -n 's/^secure DTW distance.*= //p' "$fo_dir/client-ref.log")"

# Supervised run: the first connection round-robins to worker slot 0,
# whose pid the parent announces on stdout — that is the one we kill.
fo_port=17978
./_build/default/bin/ppst_server.exe -p "$fo_port" --seed ci-failover \
  --workers 4 --spool-dir "$fo_dir/spool" \
  "$fo_dir/y.csv" >"$fo_dir/server-fo.log" 2>&1 &
fo_pid=$!
trap 'kill "$fo_pid" 2>/dev/null || true; kill "$tight_cat_pid" 2>/dev/null || true; kill "$catalog_pid" 2>/dev/null || true; kill "$tight_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir" "$cat_dir" "$fo_dir"' EXIT INT TERM
sleep 1
worker0_pid="$(sed -n 's/^worker 0: pid //p' "$fo_dir/server-fo.log" | head -1)"
if [ -z "$worker0_pid" ]; then
  echo "ci: failover smoke FAILED: supervisor never announced worker 0" >&2
  cat "$fo_dir/server-fo.log" >&2 || true
  exit 1
fi
./_build/default/bin/ppst_client.exe pair -p "$fo_port" --seed ci-failover-client \
  "$fo_dir/x.csv" >"$fo_dir/client-fo.log" 2>&1 &
fo_client_pid=$!
sleep 0.7
kill -9 "$worker0_pid" 2>/dev/null || true
fo_client_rc=0
wait "$fo_client_pid" || fo_client_rc=$?
fo_distance="$(sed -n 's/^secure DTW distance.*= //p' "$fo_dir/client-fo.log")"
kill "$fo_pid" 2>/dev/null || true
wait "$fo_pid" 2>/dev/null || true
if [ "$fo_client_rc" -ne 0 ] || [ -z "$fo_distance" ] || [ "$fo_distance" != "$ref_distance" ]; then
  echo "ci: failover smoke FAILED: distance '$fo_distance' != reference '$ref_distance' (client exit $fo_client_rc)" >&2
  cat "$fo_dir/client-fo.log" "$fo_dir/server-fo.log" >&2 || true
  exit 1
fi
if ! grep -q '^supervisor restarts: 1$' "$fo_dir/server-fo.log"; then
  echo "ci: failover smoke FAILED: restart counter is not exactly 1" >&2
  cat "$fo_dir/server-fo.log" >&2 || true
  exit 1
fi
echo "ci: failover smoke OK (worker SIGKILLed mid-session, distance $fo_distance = reference, exactly 1 restart)"

# Degraded smoke: a 4-worker catalog server whose spool is on a "full
# disk" — every snapshot write draws an injected ENOSPC — must still
# serve a complete catalog query (sessions continue non-durably), must
# not crash a single worker, and the worker that lost durability must
# answer the health probe with status 3.
dg_dir="$(mktemp -d /tmp/ppst_ci_degraded.XXXXXX)"
trap 'kill "$fo_pid" 2>/dev/null || true; kill "$tight_cat_pid" 2>/dev/null || true; kill "$catalog_pid" 2>/dev/null || true; kill "$tight_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir" "$cat_dir" "$fo_dir" "$dg_dir"' EXIT INT TERM
dg_port=17979
./_build/default/bin/ppst_server.exe -p "$dg_port" --seed ci-degraded \
  --catalog "$cat_dir/store" --workers 4 --spool-dir "$dg_dir/spool" \
  --disk-chaos enospc-every-1 >"$dg_dir/server.log" 2>&1 &
dg_pid=$!
trap 'kill "$dg_pid" 2>/dev/null || true; kill "$fo_pid" 2>/dev/null || true; kill "$tight_cat_pid" 2>/dev/null || true; kill "$catalog_pid" 2>/dev/null || true; kill "$tight_pid" 2>/dev/null || true; rm -f "$trace" "$trace2" "$doctored"; rm -rf "$chaos_dir" "$cat_dir" "$fo_dir" "$dg_dir"' EXIT INT TERM
ready=0
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  if ./_build/default/bin/ppst_client.exe health -p "$dg_port" \
       >/dev/null 2>&1; then
    ready=1
    break
  fi
  sleep 0.5
done
if [ "$ready" -ne 1 ]; then
  echo "ci: degraded smoke FAILED: server never became ready on port $dg_port" >&2
  cat "$dg_dir/server.log" >&2 || true
  exit 1
fi

# The query must complete with the full (exhaustive-identical) answer
# and exit 0 — not the partial-results exit 77.
dg_rc=0
./_build/default/bin/ppst_client.exe query -p "$dg_port" \
  --seed ci-degraded-q --distance dtw --top 1 "$cat_dir/query.csv" \
  >"$dg_dir/query.log" 2>&1 || dg_rc=$?
if [ "$dg_rc" -ne 0 ] || ! grep -q '^hit: record 6 ' "$dg_dir/query.log" \
   || grep -q '^incomplete:' "$dg_dir/query.log"; then
  echo "ci: degraded smoke FAILED: query under ENOSPC spool (exit $dg_rc)" >&2
  cat "$dg_dir/query.log" "$dg_dir/server.log" >&2 || true
  exit 1
fi

# Probes round-robin across workers; the one that paid the failed spool
# writes answers 3 (degraded).  Give the ring a few spins.
dg_health=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12; do
  probe_rc=0
  ./_build/default/bin/ppst_client.exe health -p "$dg_port" \
    >"$dg_dir/health.log" 2>&1 || probe_rc=$?
  if [ "$probe_rc" -eq 3 ]; then
    dg_health=3
    break
  fi
done
if [ "$dg_health" != "3" ] || ! grep -q '^status: degraded$' "$dg_dir/health.log"; then
  echo "ci: degraded smoke FAILED: no worker reported health 3 (degraded)" >&2
  cat "$dg_dir/health.log" "$dg_dir/server.log" >&2 || true
  exit 1
fi

kill "$dg_pid" 2>/dev/null || true
wait "$dg_pid" 2>/dev/null || true
if ! grep -q '^supervisor restarts: 0$' "$dg_dir/server.log"; then
  echo "ci: degraded smoke FAILED: worker crashed under ENOSPC spool" >&2
  cat "$dg_dir/server.log" >&2 || true
  exit 1
fi
echo "ci: degraded smoke OK (full query under ENOSPC spool, health 3, zero crashes)"
