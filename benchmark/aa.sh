#!/usr/bin/env bash
# A/A check: runs the suite 2 x N times on this commit, alternating set A
# and set B, each run with another seed, and prints for every workload x
# end-to-end metric both medians, the quartiles and |A-B|/A against the
# metric's bound in BENCHMARK.json.
#
#   bash benchmark/aa.sh [N] [first-seed]     (N >= 5, default 5; default seed 1)
#
# Set A uses seeds first, first+1, ...; set B the same seeds, so the two
# sets differ only in when they ran.
set -euo pipefail

n="${1:-5}"
first="${2:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ "$n" -lt 5 ]; then
	echo "aa.sh: N must be at least 5" >&2
	exit 2
fi

results="$here/out/aa-$$"
mkdir -p "$results"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
workloads="$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")"

for i in $(seq 0 $((n - 1))); do
	seed=$((first + i))
	for set in A B; do
		for w in $workloads; do
			bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
				tail -n 1 >"$results/$set-$w-$seed.json"
		done
	done
done

python3 - "$root/BENCHMARK.json" "$results" <<'PY'
import glob, json, statistics, sys

bench = json.load(open(sys.argv[1]))
results = sys.argv[2]
worst = 0.0
for w in (w["name"] for w in bench["workloads"]):
    print(w)
    for m in bench["end_to_end"]:
        sets = {}
        for s in "AB":
            runs = [json.load(open(f)) for f in sorted(glob.glob(f"{results}/{s}-{w}-*.json"))]
            assert all(r["correct"] for r in runs), f"incorrect run in set {s} of {w}"
            sets[s] = [r["metrics"][m["name"]]["value"] for r in runs]
        med = {s: statistics.median(v) for s, v in sets.items()}
        q = {s: statistics.quantiles(v, n=4) for s, v in sets.items()}
        diff = abs(med["A"] - med["B"]) / med["A"]
        worst = max(worst, diff / m["bound"])
        flag = "" if diff <= m["bound"] / 2 else ("  > half bound" if diff <= m["bound"] else "  > BOUND")
        print(f'  {m["name"]:22s} A {med["A"]:12.4f} [{q["A"][0]:.4f} {q["A"][2]:.4f}]'
              f'  B {med["B"]:12.4f} [{q["B"][0]:.4f} {q["B"][2]:.4f}]'
              f'  |A-B|/A {100*diff:5.2f}%  bound {100*m["bound"]:.0f}%{flag}')
print(f"worst |A-B|/A as a share of its bound: {100*worst:.0f}%")
sys.exit(0 if worst <= 1 else 1)
PY
