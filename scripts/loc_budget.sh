#!/bin/sh
# Prints the non-test Go line counts of two groups of packages and fails
# when either total exceeds its ceiling below: the sharded runtime and its
# qdisc front (internal/shardq + internal/qdisc), and the bucketed queues
# under them (internal/ffsq + internal/gradq). ARCHITECTURE.md has a line
# ceiling of its own, so the design notes shrink with the code they
# describe instead of accreting. Each ceiling is a ratchet: a
# change that removes code lowers it in the same commit, and nothing raises
# it without saying why in CHANGES.md. Lines are physical lines (wc -l),
# comments included — the budget is on what a reader must page through, and
# deleting comments to meet it is not a reduction.
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

budget 5487 internal/shardq internal/qdisc
budget 2238 internal/ffsq internal/gradq
doc 732 ARCHITECTURE.md
