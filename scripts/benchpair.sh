#!/usr/bin/env bash
# Paired A/B run of the end-to-end benchmark (perfbench): the working tree
# against a base commit, on one host, alternating which side runs first.
#
#   scripts/benchpair.sh <workload> [pairs]
#
# Environment: BASE (commit to compare against, default HEAD^) and SEED
# (perfbench -seed, default 1). Every run lasts the benchmark's own
# run_seconds from BENCHMARK.json. The base is checked out as a detached git
# worktree under $TMPDIR and removed on exit. For every end-to-end metric
# BENCHMARK.json lists, the script prints each side's median and quartiles,
# the number of pairs the working tree won (by the metric's "better"
# direction; ties count for neither side), and the median change. It exits
# 3 when the working tree's median on any of those metrics is worse than
# the base's by more than the metric's "bound" (a fraction of the base
# median).
set -euo pipefail

workload=${1:?usage: scripts/benchpair.sh <workload> [pairs]}
pairs=${2:-10}
base=${BASE:-HEAD^}
seed=${SEED:-1}

root=$(git rev-parse --show-toplevel)
secs=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
: "${secs:?benchpair: no run_seconds in BENCHMARK.json}"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$tmp/base" "$base" >/dev/null 2>&1

# run <dir> <out>: one perfbench run from checkout <dir>; appends its JSON
# verdict line to <out>.
run() {
	local line
	line=$(cd "$1" && bash perfbench/run.sh -workload "$workload" -seed "$seed" -seconds "$secs" -trace 0 | tail -n 1)
	case $line in
	*'"correct":true'*) ;;
	*)
		echo "benchpair: $1: run not correct: $line" >&2
		exit 1
		;;
	esac
	echo "$line" >>"$2"
}

echo "benchpair: workload=$workload pairs=$pairs seed=$seed seconds=$secs base=$(git -C "$root" rev-parse --short "$base") head=working tree"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run "$tmp/base" "$tmp/base.jsonl"
		run "$root" "$tmp/head.jsonl"
	else
		run "$root" "$tmp/head.jsonl"
		run "$tmp/base" "$tmp/base.jsonl"
	fi
	echo "benchpair: pair $i/$pairs done" >&2
done

# values <file> <metric>: the metric's value from every run, in run order.
values() {
	sed -n 's/.*"'"$2"'":{"value":\([^,}]*\).*/\1/p' "$1"
}

# quartiles: reads numbers on stdin, prints "q1 median q3" (linear
# interpolation between order statistics).
quartiles() {
	sort -g | awk '{ v[NR] = $1 }
	function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo + (lo < NR)] - v[lo]) }
	END { printf "%.4g %.4g %.4g\n", q(0.25), q(0.5), q(0.75) }'
}

# bounds: prints "name better bound" for every end-to-end metric in
# BENCHMARK.json (one key per line, as the file is written).
bounds() {
	awk '/"end_to_end"/ { on = 1; next }
	on && /^ *\]/ { exit }
	on && /"(name|better|bound)"/ { v = $2; gsub(/[",]/, "", v); f[$1] = v }
	on && /}/ && f["\"name\":"] != "" { print f["\"name\":"], f["\"better\":"], f["\"bound\":"]; delete f }' "$root/BENCHMARK.json"
}

failed=0
printf '%-13s %-28s %-28s %6s %8s\n' metric "base q1/median/q3" "head q1/median/q3" wins change
while read -r metric better bound; do
	read -r bq1 bmed bq3 < <(values "$tmp/base.jsonl" "$metric" | quartiles)
	read -r hq1 hmed hq3 < <(values "$tmp/head.jsonl" "$metric" | quartiles)
	wins=$(paste <(values "$tmp/base.jsonl" "$metric") <(values "$tmp/head.jsonl" "$metric") |
		awk -v better="$better" '(better == "lower" && $2 < $1) || (better == "higher" && $2 > $1) { w++ } END { print w + 0 }')
	change=$(awk -v b="$bmed" -v h="$hmed" 'BEGIN { if (b == 0) print "n/a"; else printf "%+.1f%%", 100 * (h - b) / b }')
	verdict=
	if awk -v b="$bmed" -v h="$hmed" -v better="$better" -v bound="$bound" \
		'BEGIN { worse = (better == "lower") ? h - b : b - h; exit !(b != 0 && worse / b > bound) }'; then
		verdict=" WORSE than the ${bound} bound"
		failed=1
	fi
	printf '%-13s %-28s %-28s %3d/%-2d %8s%s\n' "$metric" "$bq1/$bmed/$bq3" "$hq1/$hmed/$hq3" "$wins" "$pairs" "$change" "$verdict"
done < <(bounds)
if [[ $failed == 1 ]]; then
	echo "benchpair: head is worse than base beyond a BENCHMARK.json bound" >&2
	exit 3
fi
