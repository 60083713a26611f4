#!/usr/bin/env bash
# Alternating paired runs of two checkouts of the repository, then the
# comparison. Pair i runs both sides with seed i; odd pairs run the parent
# first, even pairs the change, so drift on the machine falls on both sides.
# Both sides run for the run_seconds of the current checkout's
# BENCHMARK.json, the run length its bounds were set for.
#
#   bash perfbench/pairs.sh <parent-checkout> <change-checkout> <workload> [pairs] [trace]
#
# Results go under .bench_build/pairs/ in the current checkout; the
# comparison is printed and saved beside them.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-checkout> <change-checkout> <workload> [pairs=10] [trace=0]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
trace=${5:-0}
here=$(pwd)
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$here/BENCHMARK.json")
if [ -z "$seconds" ]; then
	echo "$0: no run_seconds in $here/BENCHMARK.json" >&2
	exit 2
fi
out="$here/.bench_build/pairs/$workload-trace$trace-$(date +%s)"
mkdir -p "$out/parent" "$out/change"

side() { # side <checkout> <results-dir> <seed>
	local commit
	commit=$(git -C "$1" rev-parse --short HEAD 2>/dev/null || echo unknown)
	(cd "$1" && BENCH_COMMIT=$commit bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace "$trace" --out "$2" >/dev/null)
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		side "$parent" "$out/parent" "$i"
		side "$change" "$out/change" "$i"
	else
		side "$change" "$out/change" "$i"
		side "$parent" "$out/parent" "$i"
	fi
	echo "pair $i done" >&2
done
bash "$here/perfbench/run.sh" compare -bounds "$here/BENCHMARK.json" "$out/parent" "$out/change" | tee "$out/compare.txt"
