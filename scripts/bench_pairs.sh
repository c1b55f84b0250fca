#!/usr/bin/env bash
# Alternating A/B runs of the wall-clock benchmark (perfbench/run.py) for two
# commits, and a summary of their end-to-end metrics.
#
#   scripts/bench_pairs.sh <base-ref> <change-ref> <pairs> [workload...]
#
# Each ref is exported with `git archive` into a work directory outside the
# repository and built in Release into a build directory of its own
# (CARGO_TARGET_DIR). Then, for seed = 1..<pairs>, both builds run each
# workload once with that seed, one after the other; the side that goes first
# alternates from pair to pair, so a drift of the host's speed over time hits
# both sides alike. Without workload arguments, every workload of the base's
# BENCHMARK.json runs.
#
# Per workload and end-to-end metric the summary prints the median of each
# side, the change/base ratio of the medians, the middle-half spread (third
# minus first quartile) of each side, and in how many pairs the change was
# better. Failed statements and failed runs are counted per side.
#
# Environment:
#   BENCH_SECONDS  seconds per run (default: run_seconds of the base's
#                  BENCHMARK.json)
#   BENCH_WORKDIR  work directory (default: a new `mktemp -d`); it must lie
#                  outside the repository, and it is kept for inspection
#
# Nothing is written under the repository. To measure uncommitted work, pass
# the commit `git stash create` prints (after `git add` for new files).
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <base-ref> <change-ref> <pairs> [workload...]" >&2
  exit 2
fi
repo=$(git rev-parse --show-toplevel)
base=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}") ||
  { echo "unknown ref: $1" >&2; exit 2; }
change=$(git -C "$repo" rev-parse --verify --quiet "$2^{commit}") ||
  { echo "unknown ref: $2" >&2; exit 2; }
pairs=$3
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive integer" >&2; exit 2; }
shift 3

work=${BENCH_WORKDIR:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}
mkdir -p "$work"
work=$(cd "$work" && pwd -P)
case "$work/" in
  "$(cd "$repo" && pwd -P)"/*) echo "work directory must be outside the repository" >&2; exit 2 ;;
esac

for side in base change; do
  ref=$base
  [[ $side == change ]] && ref=$change
  rm -rf "$work/$side"
  mkdir -p "$work/$side/src" "$work/$side/runs"
  git -C "$repo" archive "$ref" | tar -x -C "$work/$side/src"
done

if [[ $# -gt 0 ]]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$work/base/src/BENCHMARK.json")
fi
seconds=${BENCH_SECONDS:-$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$work/base/src/BENCHMARK.json")}

# Build up front, the way perfbench/run.py configures it, so no run pays for
# a build.
for side in base change; do
  echo "building $side in $work/$side/build" >&2
  configure=(cmake -S "$work/$side/src/perfbench" -B "$work/$side/build"
             -DCMAKE_BUILD_TYPE=Release)
  command -v ninja > /dev/null && configure+=(-G Ninja)
  "${configure[@]}" > "$work/$side/build.log" 2>&1
  cmake --build "$work/$side/build" --target perfbench -j 4 >> "$work/$side/build.log" 2>&1 ||
    { echo "build of $side failed; see $work/$side/build.log" >&2; exit 1; }
done

run() {  # side workload seed
  local out="$work/$1/runs/$2.seed$3"
  if (cd "$work/$1/src" && CARGO_TARGET_DIR="$work/$1/build" \
        python3 perfbench/run.py --workload "$2" --seed "$3" --seconds "$seconds" \
        --trace 0 > "$out.out" 2> "$out.err"); then
    tail -n 1 "$out.out" > "$out.json"
  else
    echo '{"run_failed": true}' > "$out.json"
  fi
}

for workload in "${workloads[@]}"; do
  for ((seed = 1; seed <= pairs; ++seed)); do
    if ((seed % 2)); then order=(base change); else order=(change base); fi
    for side in "${order[@]}"; do
      echo "$workload seed $seed: $side" >&2
      run "$side" "$workload" "$seed"
    done
  done
done

python3 - "$work" "$pairs" "$work/base/src/BENCHMARK.json" "${workloads[@]}" <<'EOF'
import json, statistics, sys

work, pairs, bench = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
workloads = sys.argv[4:]
metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]

def load(side, workload, seed):
    try:
        with open(f"{work}/{side}/runs/{workload}.seed{seed}.json") as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return {"run_failed": True}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"work directory: {work}")
for workload in workloads:
    runs = {side: [load(side, workload, s) for s in range(1, pairs + 1)]
            for side in ("base", "change")}
    print(f"\n== {workload} ({pairs} pairs)")
    for side in ("base", "change"):
        rs = runs[side]
        failed_runs = sum(1 for r in rs if r.get("run_failed"))
        failed = sum(r.get("failed", 0) for r in rs)
        attempted = sum(r.get("attempted", 0) for r in rs)
        wrong = sum(1 for r in rs if not r.get("run_failed") and not r.get("correct"))
        print(f"  {side:6s} failed statements {failed}/{attempted}, "
              f"failed runs {failed_runs}, incorrect runs {wrong}")
    print(f"  {'metric':14s} {'base':>10s} {'change':>10s} {'ratio':>7s} "
          f"{'base IQR':>10s} {'change IQR':>10s} {'wins':>6s}")
    for name, better in metrics:
        cols = {}
        for side in ("base", "change"):
            cols[side] = [r["metrics"][name]["value"] if "metrics" in r else None
                          for r in runs[side]]
        both = [(b, c) for b, c in zip(cols["base"], cols["change"])
                if b is not None and c is not None]
        if not both:
            continue
        b_vals = [b for b, _ in both]
        c_vals = [c for _, c in both]
        mb, mc = statistics.median(b_vals), statistics.median(c_vals)
        ratio = mc / mb if mb else float("nan")
        b_q1, b_q3 = quartiles(b_vals)
        c_q1, c_q3 = quartiles(c_vals)
        wins = sum(1 for b, c in both if (c > b if better == "higher" else c < b))
        print(f"  {name:14s} {mb:10.4g} {mc:10.4g} {ratio:7.3f} "
              f"{b_q3 - b_q1:10.4g} {c_q3 - c_q1:10.4g} {wins:>3d}/{len(both)}")
EOF
