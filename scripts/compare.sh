#!/usr/bin/env bash
# Compare a change against its parent on one ladder workload, by the rule
# of ladder/README.md ("Comparing a change against its parent").
#
#   scripts/compare.sh PARENT CHANGE WORKLOAD FIRST_SEED PAIRS
#   scripts/compare.sh --from LOG
#
# The first form exports the committed files of the revisions PARENT and
# CHANGE (git archive) into a temporary directory each, builds each one
# by running its ladder smoke, and then runs PAIRS pairs of
#
#   bash ladder/run.sh --workload WORKLOAD --seed S --seconds 25 --trace 0
#
# pair i (from 0) on seed S = FIRST_SEED + i, the parent first in even
# pairs and the change first in odd ones.  Every run adds one JSON line
# to compare-WORKLOAD-FIRST_SEED.jsonl in the current directory: the
# side, revision, workload, seed, pair, exit status and the run's result
# object (null when it printed none).  The temporary directories are
# removed at exit; the log is kept.
#
# Both forms then judge the log.  Per end-to-end metric of BENCHMARK.json
# the report gives each side's median and quartiles (nearest rank, as the
# ladder's summaries), the change's median over the parent's, the pairs
# the change won and lost (ties count for neither), and a verdict:
#   gain           it won at least 9 of every 10 pairs, over at least 10
#                  pairs, and the medians differ by more than the
#                  parent's interquartile range;
#   unresolved     the runs spread (the wider side's interquartile range
#                  over the parent's median) more than the metric's bound,
#                  and not every change run beats every parent run;
#   regression     the change's median is worse than the parent's by
#                  more than the bound;
#   no regression  otherwise.
# The script exits 1 when a run failed (a non-zero exit, no result, a
# wrong answer or a failed operation) or any metric regressed.  It reads
# BENCHMARK.json and writes nothing under ladder/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
  echo "usage: $0 PARENT CHANGE WORKLOAD FIRST_SEED PAIRS" >&2
  echo "       $0 --from LOG" >&2
  exit 2
}

judge() {
  python3 - "$root/BENCHMARK.json" "$1" <<'PYEOF'
import json, math, sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2]) if line.strip()]
sides = ("parent", "change")

def result(run):
    r = run.get("result")
    return r if isinstance(r, dict) else {}

def failed(run):
    r = result(run)
    return run.get("exit") != 0 or r.get("correct") is not True or r.get("failed", 1) != 0

def median(xs):
    a = sorted(xs)
    n = len(a)
    return a[n // 2] if n % 2 else (a[n // 2 - 1] + a[n // 2]) / 2

def percentile(p, xs):
    a = sorted(xs)
    return a[max(0, min(len(a) - 1, math.ceil(p * len(a)) - 1))]

def quartiles(xs):
    return f"{median(xs):.6g} [{percentile(0.25, xs):.6g}, {percentile(0.75, xs):.6g}]"

bad = False
for workload in sorted({r["workload"] for r in runs}):
    by_pair = {}
    for r in runs:
        if r["workload"] == workload:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [by_pair[i] for i in sorted(by_pair)]
    counts = {s: [sum(result(p[s]).get(k, 0) for p in pairs if s in p) for k in ("failed", "attempted")]
              for s in sides}
    print(f"{workload}: {len(pairs)} pairs; failed operations: parent {counts['parent'][0]} "
          f"of {counts['parent'][1]}, change {counts['change'][0]} of {counts['change'][1]}")
    whole = []
    for i, p in zip(sorted(by_pair), pairs):
        broken = [s for s in sides if s not in p or failed(p[s])]
        for s in broken:
            print(f"  FAILED: pair {i}, {s}" + (f", seed {p[s]['seed']}, exit {p[s]['exit']}" if s in p else ", no run"))
        if broken:
            bad = True
        else:
            whole.append(p)
    if not whole:
        continue
    print(f"  {'metric':<15} {'parent median [q1, q3]':<40} {'change median [q1, q3]':<40} "
          f"{'ratio':>6} {'won':>4} {'lost':>4}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        par = [p["parent"]["result"]["metrics"][name]["value"] for p in whole]
        chg = [p["change"]["result"]["metrics"][name]["value"] for p in whole]
        mp, mc = median(par), median(chg)
        iqr_p = percentile(0.75, par) - percentile(0.25, par)
        iqr_c = percentile(0.75, chg) - percentile(0.25, chg)
        wins = sum(1 for a, b in zip(par, chg) if sign * (b - a) < 0)
        losses = sum(1 for a, b in zip(par, chg) if sign * (b - a) > 0)
        if len(whole) >= 10 and wins >= math.ceil(0.9 * len(whole)) and sign * (mp - mc) > iqr_p:
            verdict = "gain"
        elif max(iqr_p, iqr_c) > bound * abs(mp) and not all(
                sign * (b - a) < 0 for a in par for b in chg):
            verdict = "unresolved"
        elif sign * (mc - mp) > bound * abs(mp):
            verdict = "regression"
            bad = True
        else:
            verdict = "no regression"
        ratio = f"{mc / mp:.3f}" if mp else "-"
        print(f"  {name:<15} {quartiles(par):<40} {quartiles(chg):<40} {ratio:>6} "
              f"{wins:>4} {losses:>4}  {verdict}")
sys.exit(1 if bad else 0)
PYEOF
}

if [ "${1:-}" = "--from" ]; then
  [ $# -eq 2 ] || usage
  judge "$2"
  exit
fi
[ $# -eq 5 ] || usage
parent="$1" change="$2" workload="$3" first_seed="$4" pairs="$5"
log="$PWD/compare-$workload-$first_seed.jsonl"
work="$(mktemp -d "${TMPDIR:-/tmp}/ppst-compare.XXXXXX")"
trap 'rm -rf "$work"' EXIT INT TERM

declare -A rev dir
for side in parent change; do
  name="${!side}"
  rev[$side]="$(git -C "$root" rev-parse --verify "$name^{commit}")"
  dir[$side]="$work/$side"
  mkdir "${dir[$side]}"
  git -C "$root" archive "${rev[$side]}" | tar -x -C "${dir[$side]}"
  echo "compare: building $side (${rev[$side]}) by its ladder smoke" >&2
  if ! (cd "${dir[$side]}" && bash ladder/run.sh smoke >"$work/$side.smoke" 2>&1); then
    tail -20 "$work/$side.smoke" >&2
    echo "compare: the $side revision's ladder smoke failed" >&2
    exit 1
  fi
done

: >"$log"
run() {
  local side="$1" seed="$2" pair="$3" out status result
  out="$work/$side-$seed.out"
  status=0
  (cd "${dir[$side]}" && bash ladder/run.sh --workload "$workload" --seed "$seed" \
    --seconds 25 --trace 0 >"$out" 2>"$work/$side-$seed.err") || status=$?
  result="$(tail -n 1 "$out")"
  case "$result" in "{"*) ;; *) result=null ;; esac
  printf '{"side": "%s", "rev": "%s", "workload": "%s", "seed": %d, "pair": %d, "exit": %d, "result": %s}\n' \
    "$side" "${rev[$side]}" "$workload" "$seed" "$pair" "$status" "$result" >>"$log"
  echo "compare: pair $pair seed $seed $side exit $status" >&2
  if [ "$status" -ne 0 ]; then tail -n 5 "$out" "$work/$side-$seed.err" >&2; fi
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then
    run parent "$seed" "$i"
    run change "$seed" "$i"
  else
    run change "$seed" "$i"
    run parent "$seed" "$i"
  fi
done
echo "compare: log $log" >&2
judge "$log"
