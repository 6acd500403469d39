#!/bin/sh
# Alternating parent/change pairs of the benchmark:
#
#   sh scripts/pairs.sh [-s first-seed] <parent-rev> <N> <workload>...
#
# Extracts the committed files of <parent-rev> into a temporary directory
# (git archive: offline, and nothing is registered in .git) and, for each
# workload, runs `sh bench/run.sh --workload W --seed S --seconds 20
# --trace 0` N times on each side — the parent's checkout and this working
# tree, uncommitted edits included — alternating, and swapping which side
# runs first every pair. Pair i runs seed first-seed+i-1 on both sides
# (first-seed 41 by default). Every run's output is kept in the results
# directory named on the first line; the parent's checkout is removed on
# exit. A run that exits non-zero stops the script, naming its output.
#
# Prints, per workload, one row per pair: each end-to-end metric of
# BENCHMARK.json on both sides and the change's % difference; then per
# metric the median of each side and the number of pairs the change won
# (all five metrics are better lower). POSIX sh, sed and awk only.
set -eu

first=41
while getopts s: opt; do
	case $opt in
	s) first=$OPTARG ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -lt 3 ]; then
	echo "usage: sh scripts/pairs.sh [-s first-seed] <parent-rev> <N> <workload>..." >&2
	exit 2
fi
rev=$1 n=$2
shift 2

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=${TMPDIR:-/tmp}
out=$(mktemp -d "$tmp/pairs-out.XXXXXX")
parent=$(mktemp -d "$tmp/pairs-parent.XXXXXX")
trap 'rm -rf "$parent"' EXIT
trap 'exit 1' HUP INT TERM
git -C "$root" archive "$rev" | tar -x -C "$parent"
echo "results: $out (parent $(git -C "$root" rev-parse --short "$rev"))"

metrics="setup_s lat_p50_us allocs_per_op alloc_bytes_per_op rss_mb"

# run SIDE DIR WORKLOAD PAIR SEED FIRST: one 20 s run; appends its five
# metrics to $out/table.
run() {
	f="$out/$3-$4-$1.txt"
	if ! (cd "$2" && sh bench/run.sh --workload "$3" --seed "$5" --seconds 20 --trace 0) > "$f" 2>&1; then
		echo "pairs: $1 run of $3 seed $5 failed; its output is $f" >&2
		exit 1
	fi
	line=$(grep '^{"correct"' "$f" | tail -n 1)
	row="$3 $4 $5 $6 $1"
	for m in $metrics; do
		row="$row $(echo "$line" | sed -n 's/.*"'"$m"'":{"value":\([^,}]*\).*/\1/p')"
	done
	echo "$row" >> "$out/table"
}

for w in "$@"; do
	i=1
	while [ "$i" -le "$n" ]; do
		seed=$((first + i - 1))
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$parent" "$w" "$i" "$seed" parent
			run change "$root" "$w" "$i" "$seed" parent
		else
			run change "$root" "$w" "$i" "$seed" change
			run parent "$parent" "$w" "$i" "$seed" change
		fi
		i=$((i + 1))
	done
done

awk -v metrics="$metrics" -v n="$n" '
function median(a, k,    i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
	return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
function pct(p, c) { return p == 0 ? "-" : sprintf("%+.1f%%", 100 * (c - p) / p) }
BEGIN { nm = split(metrics, name, " ") }
{
	w = $1; if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
	key = w SUBSEP $2
	seed[key] = $3; firstside[key] = $4
	for (m = 1; m <= nm; m++) v[key, $5, m] = $(5 + m) + 0
}
END {
	for (k = 1; k <= nw; k++) {
		w = order[k]
		printf "\n%s: %d pairs (parent | change | change vs parent)\n", w, n
		printf "%4s %6s %-6s", "pair", "seed", "first"
		for (m = 1; m <= nm; m++) printf "  %-32s", name[m]
		printf "\n"
		for (i = 1; i <= n; i++) {
			key = w SUBSEP i
			printf "%4d %6s %-6s", i, seed[key], firstside[key]
			for (m = 1; m <= nm; m++)
				printf "  %10.7g %10.7g %10s", v[key, "parent", m], v[key, "change", m], \
					pct(v[key, "parent", m], v[key, "change", m])
			printf "\n"
		}
		printf "%-18s %12s %12s %10s %s\n", "metric", "parent p50", "change p50", "", "change won"
		for (m = 1; m <= nm; m++) {
			won = 0
			for (i = 1; i <= n; i++) {
				key = w SUBSEP i
				p[i] = v[key, "parent", m]; c[i] = v[key, "change", m]
				if (c[i] < p[i]) won++
			}
			mp = median(p, n); mc = median(c, n)
			printf "%-18s %12.7g %12.7g %10s %d/%d\n", name[m], mp, mc, pct(mp, mc), won, n
		}
	}
}' "$out/table"
