#!/bin/sh
# Prints the non-test Go line count of the sharded runtime and its qdisc
# front (internal/shardq + internal/qdisc) and fails when the total exceeds
# the ceiling below. The ceiling is a ratchet: a change that removes code
# lowers it in the same commit, and nothing raises it without saying why in
# CHANGES.md. Lines are physical lines (wc -l), comments included — the
# budget is on what a reader must page through, and deleting comments to
# meet it is not a reduction.
set -eu
cd "$(dirname "$0")/.."

CEILING=6928

total=0
for pkg in internal/shardq internal/qdisc; do
	n=0
	for f in "$pkg"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		n=$((n + $(wc -l <"$f")))
	done
	printf '%-18s %6d\n' "$pkg" "$n"
	total=$((total + n))
done
printf '%-18s %6d (ceiling %d)\n' total "$total" "$CEILING"
if [ "$total" -gt "$CEILING" ]; then
	echo "loc_budget: shardq+qdisc grew past the ceiling" >&2
	exit 1
fi
