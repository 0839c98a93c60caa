#!/usr/bin/env bash
# flakerate.sh — how often a set of tests fails, and how.
#
#   scripts/flakerate.sh [-n RUNS] [-t TIMEOUT] [-k DIR] REGEX PKG TREE [TREE2]
#
# Builds PKG's test binary once per source tree, then runs
# `-test.run REGEX` RUNS times, one process per run (no -race). With two
# trees the runs alternate TREE, TREE2, TREE, TREE2, … so that a change in
# the host's load hits both sides alike. At the end it prints, per tree, how
# many runs failed and a tally of failed tests by message class: the test's
# first failure line with its file:line prefix cut and every number turned
# into N. A run that dies without a `--- FAIL` line (a panic, a timeout) is
# tallied under its first `panic:`/`fatal error:` line.
#
# Example (the recovery family, parent commit against the working tree):
#
#   git archive HEAD~1 | (mkdir -p /tmp/parent && tar -x -C /tmp/parent)
#   scripts/flakerate.sh -n 100 \
#     'TestRecovery|TestBatchPathRecovery|TestTrunkModeManualRestart|TestWindowFlushSurvivesRestart' \
#     ./internal/core/ /tmp/parent .
#
# -k DIR keeps every failed run's output there (default: a temporary
# directory, removed at exit).
set -euo pipefail

runs=50
timeout=5m
keep=""
while getopts "n:t:k:" opt; do
	case $opt in
	n) runs=$OPTARG ;;
	t) timeout=$OPTARG ;;
	k) keep=$OPTARG ;;
	*) sed -n '2,24p' "$0" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	sed -n '2,24p' "$0" >&2
	exit 2
fi
regex=$1 pkg=$2
shift 2
trees=("$@")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
out=${keep:-$work/out}
mkdir -p "$out"

for i in "${!trees[@]}"; do
	echo "building $pkg in ${trees[$i]}" >&2
	(cd "${trees[$i]}" && go test -c -o "$work/t$i.test" "$pkg")
	: >"$work/fails$i"
	echo 0 >"$work/failed$i"
done

for ((r = 1; r <= runs; r++)); do
	for i in "${!trees[@]}"; do
		log="$out/tree$i-run$r.log"
		# The package directory is the working directory go test gives a
		# test; testdata lookups need it.
		if (cd "${trees[$i]}/$pkg" && "$work/t$i.test" -test.run "$regex" -test.count=1 -test.timeout "$timeout") >"$log" 2>&1; then
			rm -f "$log"
			continue
		fi
		echo $(($(cat "$work/failed$i") + 1)) >"$work/failed$i"
		awk '
			function class(line) {
				sub(/^[ \t]+/, "", line)
				sub(/^[A-Za-z0-9_]+\.go:[0-9]+: /, "", line)
				gsub(/[0-9]+/, "N", line)
				return substr(line, 1, 100)
			}
			pending != "" {
				if ($0 !~ /^[ \t]*--- FAIL: /) print pending ": " class($0)
				pending = ""
			}
			/^[ \t]*--- FAIL: / { pending = $3; failed = 1; next }
			!failed && !dead && /^(panic: |fatal error: )/ { dead = class($0) }
			running { sub(/^[ \t]+/, ""); hung = hung " " $1; running = 0 }
			/^[ \t]*running tests:/ { running = 1 }
			END {
				if (pending != "") print pending ": (no message)"
				if (!failed) print "(no --- FAIL line" hung "): " (dead != "" ? dead : "nonzero exit")
			}
		' "$log" >>"$work/fails$i"
		if [ -z "$keep" ]; then rm -f "$log"; fi
	done
	if ((r % 10 == 0)); then
		echo "run $r/$runs" >&2
	fi
done

for i in "${!trees[@]}"; do
	echo "== ${trees[$i]}: $(cat "$work/failed$i") of $runs runs failed"
	sort "$work/fails$i" | uniq -c | sort -rn
done
