#!/usr/bin/env bash
# cited-tests.sh fails when DESIGN.md, README.md or the verify skill names a
# Go test, fuzz target or benchmark that does not exist, so a rename or a
# fold cannot leave a doc pointing at nothing (a `go test -run` pattern that
# matches no test passes silently). A cited name is any word that starts
# Test, Fuzz or Benchmark followed by a capital, a digit or an underscore; a
# package qualifier in front of it (schedule.TestX) is dropped, and a bare
# /Sub with no parent written before it is not a cited name. The top-level
# name must be one `go test -list` prints for the root module or the bench
# module; in the verify skill, whose `-run` alternatives are prefixes
# (TestPreempt), it may also be a prefix of one. A subtest path,
# Parent/Sub, also needs each of its elements as a string literal ("Sub")
# in the test files of a package that defines a test Parent names.
#
# Usage: bash scripts/cited-tests.sh   (from anywhere; make lint runs it)
set -euo pipefail
cd "$(dirname "$0")/.."
GO="${GO:-go}"

# Every listed name with the directory of its package, "name dir" a line.
listed="$({ $GO test -list '.*' ./...; (cd bench && $GO test -list '.*' .); } | awk '
	/^(Test|Fuzz|Benchmark|Example)/ { names[n++] = $1; next }
	/^ok/ { dir = $2; sub(/^chimera\/?/, "", dir); if (dir == "") dir = "."
		for (i = 0; i < n; i++) print names[i], dir
		n = 0 }')"

# cited FILE...: the names FILE cites, once each.
cited() {
	grep -ohE '(^|[^/[:alnum:]_])(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*(/[A-Za-z0-9_-]+)*' "$@" |
		sed -E 's/^[^A-Z]//' | sort -u
}

missing=0
# check PREFIX NAME...: each NAME must resolve; PREFIX=1 lets its top-level
# name be a prefix of a listed one.
check() {
	local prefix="$1" cited top dirs sub found dir
	shift
	for cited in "$@"; do
		top="${cited%%/*}"
		dirs="$(awk -v t="$top" -v p="$prefix" '$1 == t || (p && index($1, t) == 1) { print $2 }' <<<"$listed" | sort -u)"
		if [ -z "$dirs" ]; then
			echo "cited but not a test, fuzz target or benchmark: $cited"
			missing=1
			continue
		fi
		[ "$cited" = "$top" ] && continue
		IFS=/ read -ra subs <<<"${cited#*/}"
		for sub in "${subs[@]}"; do
			found=0
			for dir in $dirs; do
				if grep -qF "\"$sub\"" "$dir"/*_test.go; then found=1; fi
			done
			if [ "$found" = 0 ]; then
				echo "cited but no subtest \"$sub\" in the package of $top: $cited"
				missing=1
			fi
		done
	done
}

check 0 $(cited DESIGN.md README.md)
check 1 $(cited .claude/skills/verify/SKILL.md)
exit "$missing"
