#!/usr/bin/env bash
# Behaviour gate (ROADMAP, standing rules): the virtual-time tables and the
# cluster content digests of this tree must be byte-identical to <base-ref>'s.
# Builds reobench from both, runs the gate list on each, drops the wall-clock
# `completed in` lines, and diffs. Exits 1 on any difference — unless the PR
# declares the move: when scripts/gate-expected.diff exists, a diff equal to
# that file byte for byte passes too. The file belongs to the one PR that
# moves the numbers and says why in CHANGES.md; the next PR deletes it. On a
# failing run stdout is the diff alone, so
# `scripts/behaviour-gate.sh <base-ref> >scripts/gate-expected.diff` records it.
#
#   scripts/behaviour-gate.sh <base-ref>
#
# The hedged chaos variant (-hedge-delay 200us -fail-slow-factor 3) is not in
# the list: it differs run to run on identical code (ROADMAP item 1).
set -euo pipefail

base=${1:?usage: scripts/behaviour-gate.sh <base-ref>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"
(cd "$work/base" && go build -o "$work/reobench.base" ./cmd/reobench)
(cd "$root" && go build -o "$work/reobench.head" ./cmd/reobench)

# Whole output is compared, minus wall-clock lines.
tables=(
	"-experiment fig6 -objects 300 -requests 3000 -seed 1"
	"-experiment fig7 -objects 300 -requests 3000 -seed 1"
	"-experiment fig8 -objects 300 -requests 3000 -seed 1"
	"-experiment fig9 -objects 200 -requests 2000 -seed 1"
	"-chaos -fault-seed 42 -objects 300 -requests 6000"
	"-chaos -fault-seed 42 -objects 300 -requests 6000 -admission reuse"
	"-chaos -fault-seed 42 -objects 300 -requests 6000 -flash-layout log -admission reuse"
	"-experiment hedge -objects 120 -requests 1500"
)
# Concurrent replays: only the content digest line is deterministic.
digests=(
	"-cluster 1 -objects 200 -requests 2000"
	"-cluster 3 -remote -objects 200 -requests 2000"
	"-cluster 3 -batch 64 -objects 200 -requests 2000"
)

run() { # run <side> <grep -o pattern> <args...>: append the matching output to <side>.out
	local side=$1 keep=$2
	shift 2
	echo "\$ reobench $*" >>"$work/$side.out"
	if ! "$work/reobench.$side" "$@" >"$work/last.out" 2>&1; then
		cat "$work/last.out" >&2
		echo "behaviour gate: reobench.$side $* failed" >&2
		exit 1
	fi
	grep -v 'completed in' "$work/last.out" | grep -oE "$keep" >>"$work/$side.out" || true
}

for side in base head; do
	for args in "${tables[@]}"; do
		# shellcheck disable=SC2086
		run "$side" '.*' $args
	done
	for args in "${digests[@]}"; do
		# shellcheck disable=SC2086
		run "$side" 'content digest: [0-9a-f]+' $args
	done
done

expected="$root/scripts/gate-expected.diff"
if diff -u --label base --label head "$work/base.out" "$work/head.out" >"$work/gate.diff"; then
	echo "behaviour gate: identical to $base ($(grep -c '^\$ reobench' "$work/head.out") commands)"
elif [ -f "$expected" ] && cmp -s "$work/gate.diff" "$expected"; then
	echo "behaviour gate: differs from $base exactly as scripts/gate-expected.diff declares ($(grep -c '^[-+][^-+]' "$expected") lines)"
else
	cat "$work/gate.diff"
	echo "behaviour gate: output differs from $base" >&2
	exit 1
fi
