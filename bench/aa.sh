#!/usr/bin/env bash
# A/A: two full sets of runs of the same commit, compared with the
# benchmark's own -compare. Every (workload, end-to-end metric) pair must
# come out ok — none regressed, none unresolved, byte counts identical.
# usage: bench/aa.sh [outdir] [bench flags, e.g. -seed 2]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-$here/../.bench_build/aa}"
shift || true
mkdir -p "$out"
for side in A B; do
	echo "== set $side -> $out/$side.txt" >&2
	bash "$here/run.sh" "$@" -out "$out/$side.json" >"$out/$side.txt"
done
bash "$here/run.sh" -compare "$out/A.json" "$out/B.json" | tee "$out/compare.txt"
if grep -q ' unresolved$' "$out/compare.txt"; then
	echo "aa: unresolved pairs — the benchmark is not steady enough on this box" >&2
	exit 1
fi
