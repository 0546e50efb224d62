#!/bin/sh
# Lists the non-test functions under internal/ that no binary of the repo
# links, with the line count of each, by package. Every main package
# (benchmark, cmd/*, examples/*) is built with inlining off
# (-gcflags=all=-l), so a function a binary calls is in its symbol table
# even when the compiler would have inlined every call; the linker's dead
# code elimination has dropped the rest. The analyzers (internal/analysis)
# and testdata are not runtime code and are skipped.
#
# The linker keeps any method whose name and signature match a method of
# an interface the binary uses, so a test-only method on a type that
# reaches such an interface never shows in this report.
#
# Unreached is evidence, not a verdict: a test oracle or a documented
# public API may still be the point of a function. The last line is the
# total; with a ceiling argument the script fails when the total line
# count passes it (CI passes the committed ceiling, a ratchet that cull
# PRs lower).
#
#	sh scripts/unreached.sh [CEILING]
set -eu
cd "$(dirname "$0")/.."
ceiling=${1:-}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -gcflags=all=-l -o "$tmp/" ./benchmark ./cmd/... ./examples/...

# Linked symbols of the module's internal packages, one per line, with
# type parameters and the pointer-receiver spelling stripped:
# eiffel/internal/qdisc.(*Front).Len becomes eiffel/internal/qdisc.Front.Len.
for bin in "$tmp"/*; do
	go tool nm "$bin"
done | awk '$(NF-1) ~ /^[Tt]$/ && $NF ~ /^eiffel\/internal\// {
	s = $NF
	while (gsub(/\[[^][]*\]/, "", s)) {}
	gsub(/\(\*/, "", s)
	gsub(/\)/, "", s)
	print s
}' | sort -u >"$tmp/linked"

# Declared functions: package-qualified name, file, and line count, from
# the signature's line through the closing brace's (a one-line function
# counts one).
find internal -name '*.go' ! -name '*_test.go' \
	! -path 'internal/analysis/*' ! -path '*/testdata/*' | sort |
	xargs awk '
	FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg) }
	/^func / {
		line = $0
		sub(/^func /, "", line)
		recv = ""
		if (line ~ /^\(/) {
			recv = line
			sub(/\).*/, "", recv)
			sub(/^\(/, "", recv)
			sub(/^[A-Za-z_0-9]+ /, "", recv)
			sub(/^\*/, "", recv)
			sub(/\[.*/, "", recv)
			recv = recv "."
			sub(/^\([^)]*\) /, "", line)
		}
		match(line, /^[A-Za-z_0-9]+/)
		name = substr(line, 1, RLENGTH)
		if (name == "init" || name == "_")
			next
		start = FNR
		sym = "eiffel/" pkg "." recv name
		if ($0 ~ /}$/) { print sym, FILENAME, 1; next }
		open = 1
		next
	}
	open && /^}/ { print sym, FILENAME, FNR - start + 1; open = 0 }
	' >"$tmp/declared"

awk -v ceiling="$ceiling" '
	FILENAME == ARGV[1] { linked[$1] = 1; next }
	!($1 in linked) {
		pkg = $1
		sub(/^eiffel\//, "", pkg)
		sub(/\..*/, "", pkg)
		fn = $1
		sub(/^[^.]*\./, "", fn)
		rows[pkg] = rows[pkg] sprintf("  %-48s %5d  %s\n", fn, $3, $2)
		n[pkg]++
		lines[pkg] += $3
		total++
		totalLines += $3
	}
	END {
		for (p in n) order[++k] = p
		for (i = 1; i <= k; i++) for (j = i + 1; j <= k; j++)
			if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
		for (i = 1; i <= k; i++) {
			p = order[i]
			printf "%s: %d functions, %d lines\n%s", p, n[p], lines[p], rows[p]
		}
		printf "total: %d functions, %d lines", total, totalLines
		if (ceiling != "") printf " (ceiling %d)", ceiling
		printf "\n"
		if (ceiling != "" && totalLines > ceiling + 0) {
			print "unreached: unreached lines grew past the ceiling" > "/dev/stderr"
			exit 1
		}
	}
' "$tmp/linked" "$tmp/declared"
