#!/bin/sh
# Fails if any root-package steady-state hot-path benchmark reports a
# nonzero allocs/op. The BenchmarkHotPath* targets each run one full
# publish->drain lap per op against pre-warmed runtimes, so any allocation
# is a regression on the enqueue/dequeue hot paths (bench_alloc_test.go).
# Every lap drains through GroupDequeueBatch, the only way packets leave
# the sharded runtime, in both topologies: one group drained from the
# benchmark goroutine, and four groups drained by four persistent workers
# (BenchmarkHotPathGroupDrain), so neither may regress. The set also holds
# the shaped pipeline with its shaper stage really parking and migrating
# (BenchmarkHotPathShapedEnqueueBatched: ffsq.ShaperStore's chunk pool
# refills only on the warming lap),
# plus the fault-free lap of the resilient egress wrapper
# (BenchmarkHotPathEgressTx, on the timer front, whose per-shard timer
# stores park by value too and rotate with its clock lap by lap): retry
# machinery on the path, never firing,
# and the sharded hierarchical-QoS backend's three-tag charge cycle
# (BenchmarkHotPathHierSched).
#
# On failure, the //eiffel:hotpath inventory (cmd/eiffel-vet -hotpaths)
# is printed for the packages each failing lap drives. eiffel-vet's
# hotpath analyzer statically proves those functions free of
# allocation-inducing constructs, so a nonzero allocs/op pins the
# regression to one of two places: an //eiffel:allow'd amortized site
# that stopped amortizing (a scratch buffer re-growing every lap), or a
# function on the lap that is missing its annotation entirely.
set -eu
cd "$(dirname "$0")/.."
out="$(go test -run '^$' -bench 'BenchmarkHotPath' -benchtime 100x -benchmem .)"
printf '%s\n' "$out"
failed="$(printf '%s\n' "$out" | awk '
	/^BenchmarkHotPath/ {
		allocs = $(NF-1)
		if (allocs + 0 != 0) {
			name = $1
			sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
			print name
		}
	}
')"
if [ -n "$failed" ]; then
	echo "FAIL: nonzero allocs/op on a hot path:" >&2
	inventory="$(go run ./cmd/eiffel-vet -hotpaths ./...)"
	for bench in $failed; do
		# Map each benchmark to the import paths its lap drives; the
		# substrate packages (bucket, ffsq) sit under every lap.
		case "$bench" in
		BenchmarkHotPathShapedEnqueueBatched)
			pkgs="internal/qdisc internal/pkt internal/shardq internal/bucket internal/ffsq" ;;
		BenchmarkHotPathEnqueue* | BenchmarkHotPathGroupDrain)
			pkgs="internal/shardq internal/bucket internal/ffsq" ;;
		BenchmarkHotPathPolicyBatched | BenchmarkHotPathChurnAdmit)
			pkgs="internal/qdisc internal/pifo internal/pkt internal/shardq internal/bucket internal/ffsq" ;;
		BenchmarkHotPathHierSched)
			pkgs="internal/qdisc internal/hclock internal/pkt internal/shardq internal/bucket internal/ffsq" ;;
		BenchmarkHotPathEgressTx)
			pkgs="internal/qdisc internal/stats internal/pkt internal/shardq internal/bucket internal/ffsq" ;;
		*)
			pkgs="internal" ;;
		esac
		echo "" >&2
		echo "$bench: //eiffel:hotpath functions on this lap:" >&2
		for p in $pkgs; do
			printf '%s\n' "$inventory" | grep "^eiffel/$p " >&2 || true
		done
	done
	exit 1
fi

