#!/bin/sh
# Prints the non-test Go line counts of three groups of packages and fails
# when any total exceeds its ceiling below: the sharded runtime and its
# qdisc front (internal/shardq + internal/qdisc), the bucketed queues
# under them (internal/ffsq + internal/gradq), and the experiment harness
# with its baseline queues and helpers (internal/exp, queue, cmpq, stats,
# workload). The third holds what scripts/unreached.sh cannot see: code
# only an experiment id reaches is linked by eiffel-bench.
# ARCHITECTURE.md has a line ceiling of its own, so the design notes
# shrink with the code they describe instead of accreting. Each ceiling is
# a ratchet: a change that removes code lowers it in the same commit, and
# nothing raises it without saying why in CHANGES.md. Lines are physical
# lines (wc -l), comments included — the budget is on what a reader must
# page through, and deleting comments to meet it is not a reduction.
set -eu
cd "$(dirname "$0")/.."

# budget CEILING PKG...
budget() {
	ceiling=$1
	shift
	total=0
	for pkg in "$@"; do
		n=0
		for f in "$pkg"/*.go; do
			case "$f" in *_test.go) continue ;; esac
			n=$((n + $(wc -l <"$f")))
		done
		printf '%-18s %6d\n' "$pkg" "$n"
		total=$((total + n))
	done
	printf '%-18s %6d (ceiling %d)\n' total "$total" "$ceiling"
	if [ "$total" -gt "$ceiling" ]; then
		echo "loc_budget: $* grew past the ceiling" >&2
		exit 1
	fi
}

# doc CEILING FILE
doc() {
	n=$(wc -l <"$2")
	printf '%-18s %6d (ceiling %d)\n' "$2" "$n" "$1"
	if [ "$n" -gt "$1" ]; then
		echo "loc_budget: $2 grew past the ceiling" >&2
		exit 1
	fi
}

budget 5280 internal/shardq internal/qdisc
budget 2194 internal/ffsq internal/gradq
budget 1820 internal/exp internal/queue internal/cmpq internal/stats internal/workload
doc 728 ARCHITECTURE.md
