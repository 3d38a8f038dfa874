#!/usr/bin/env bash
# The CI performance gate: HEAD against a base commit through the
# repository's one instrument, benchmark/ (see benchmark/README.md).
#
#   perf-gate.sh run BASE_COMMIT     build both commits, run them interleaved, judge
#   perf-gate.sh judge OLD NEW       judge two run sets (comma-separated report files)
#
# Both commits run on this machine, taking turns, because run sets taken
# minutes apart disagree by 8-17 % on anything that crosses a socket and
# interleaved ones by about 2 %. Hard failures are the rows that do not
# depend on the runner's mood: allocs_per_round (2 % bound, spread 0.00 %),
# EXACT MISMATCH (core.sim_fingerprint or an exact count differs for the
# same seed) and failed_round_share (a round errored or was misclassified).
# Timing rows are printed as advisory until the runner's noise is known.
set -euo pipefail

pairs=3   # untraced run sets per side, one seed each
secs=5    # measured seconds per workload and run: the benchmark's floor
hard='allocs_per_round|EXACT MISMATCH|failed_round_share'

judge() {
	local out status=0
	out=$(bash benchmark/run.sh -compare "$1" "$2" 2>&1) || status=$?
	echo "$out"
	if ! grep -q ' rows, .* failures$' <<<"$out"; then
		echo "perf-gate: -compare did not produce a verdict (exit $status)" >&2
		return 2
	fi
	local fails
	fails=$(grep '^FAIL:' <<<"$out" || true)
	if grep -E "$hard" <<<"$fails"; then
		echo "perf-gate: hard failure(s) above" >&2
		return 1
	fi
	if [ -n "$fails" ]; then
		echo "perf-gate: advisory only (timing on a shared runner):"
		sed 's/^FAIL:/  advisory:/' <<<"$fails"
	fi
	echo "perf-gate: ok"
}

# one_run DIR REPORT ARGS...: a run set from the checkout in DIR. The benchmark
# exits non-zero after writing its report when a round failed; -compare
# reports that as failed_round_share, so only a missing report stops us.
one_run() {
	local dir=$1 json=$2
	shift 2
	(cd "$dir" && bash benchmark/run.sh -seconds "$secs" -json "$json" "$@" >"$json.log" 2>&1) ||
		echo "perf-gate: $json: the run exited non-zero (see the comparison)"
	[ -s "$json" ] || { cat "$json.log"; echo "perf-gate: $json: no report written" >&2; exit 2; }
}

run() {
	local base head work old="" new="" i order side
	base=$(git rev-parse --verify "$1^{commit}")
	head=$(git rev-parse HEAD)
	if [ "$base" = "$head" ]; then
		echo "perf-gate: HEAD is the base commit, nothing to compare"
		return 0
	fi
	if ! git cat-file -e "$base:benchmark/run.sh" 2>/dev/null; then
		echo "perf-gate: $base predates benchmark/, nothing to compare"
		return 0
	fi
	work=$(mktemp -d)
	trap "rm -rf '$work'" EXIT
	mkdir "$work/base"
	git archive "$base" | tar -x -C "$work/base"

	for i in $(seq 1 "$pairs"); do
		order="base head"
		[ $((i % 2)) -eq 0 ] && order="head base"
		for side in $order; do
			echo "perf-gate: pair $i/$pairs, $side"
			if [ "$side" = base ]; then
				one_run "$work/base" "$work/base-$i.json" -trace 0 -seed "$i"
			else
				one_run . "$work/head-$i.json" -trace 0 -seed "$i"
			fi
		done
		old+="$work/base-$i.json," new+="$work/head-$i.json,"
	done
	# One traced pass per side: the exact counts and the fingerprint.
	echo "perf-gate: traced pass, base then head"
	one_run "$work/base" "$work/base-t.json" -trace 1 -seed 1
	one_run . "$work/head-t.json" -trace 1 -seed 1

	judge "$old$work/base-t.json" "$new$work/head-t.json"
}

case "${1:-}" in
run) [ $# -eq 2 ] || { echo "usage: $0 run BASE_COMMIT" >&2; exit 2; }; run "$2" ;;
judge) [ $# -eq 3 ] || { echo "usage: $0 judge OLD NEW" >&2; exit 2; }; judge "$2" "$3" ;;
*) echo "usage: $0 run BASE_COMMIT | judge OLD[,OLD...] NEW[,NEW...]" >&2; exit 2 ;;
esac
