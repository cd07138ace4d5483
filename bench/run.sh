#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the toolchain writes — build cache, binary — stays under
# .bench_build/ at the checkout's root; the benchmark's own outputs go to
# bench/out/. Arguments are passed through to the program.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/chimera-bench" .
exec "$build/chimera-bench" "$@"
