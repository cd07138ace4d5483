#!/usr/bin/env bash
# cited-tests.sh fails when DESIGN.md or README.md names a Go test, fuzz
# target or benchmark that does not exist, so a rename or a fold cannot leave
# a doc pointing at nothing (a `go test -run` pattern that matches no test
# passes silently). A cited name is any word that starts Test, Fuzz or
# Benchmark followed by a capital, a digit or an underscore; a package
# qualifier in front of it (schedule.TestX) is dropped. The top-level name
# must be one `go test -list` prints for the root module or the bench
# module; a subtest path, Parent/Sub, also needs each of its elements as a
# string literal ("Sub") in the test files of a package that defines Parent.
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

missing=0
for cited in $(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*(/[A-Za-z0-9_-]+)*' DESIGN.md README.md | sort -u); do
	top="${cited%%/*}"
	dirs="$(awk -v t="$top" '$1 == t { print $2 }' <<<"$listed")"
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
exit "$missing"
