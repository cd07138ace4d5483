# CI and humans run the same commands: the .github/workflows/ci.yml jobs
# are thin wrappers around these targets.

GO ?= go

.PHONY: all build test race race-sweep lint bench bench-build bench-serve bench-fleet bench-router fuzz cover clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-sweep runs the daemon packages (the engine's pool and memo tables,
# the HTTP chassis and the three daemons built on it) and the fleet layer
# (plan curves shared by a live sim and its forks) twenty times, and the
# planner core five times, under the race detector; one failing run fails
# the target. The engine runs at -cpu 1,4: on one P a pool saturates and
# nested calls run in place, on four helpers steal and nested calls find
# spare tokens — different code, and the runner's core count should not pick
# which is swept. The fleet run is -short: its single-threaded oracle suites
# shrink, the concurrency tests do not. The schedule and perfmodel packages
# are in because graph compile and replay draw from three process-wide pools
# (producerPool, topoScratchPool, readoutPool) that concurrent planners
# share.
race-sweep:
	$(GO) test -race -count=20 -cpu 1,4 ./internal/engine
	$(GO) test -race -count=20 ./internal/httpd ./internal/serve ./internal/router ./internal/controller
	$(GO) test -race -count=20 -short ./internal/fleet
	$(GO) test -race -count=5 ./internal/schedule ./internal/perfmodel

# bench-build vets and tests the benchmark module. bench/ is outside the
# root module (it is compiled against internal APIs through a replace
# directive), so build/test/lint above never see it.
bench-build:
	cd bench && $(GO) vet . && $(GO) test .

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi

# bench writes BENCH_sweep.json (serial vs parallel sweep throughput,
# speedup, cache hit rate — the CI-archived perf trajectory) and
# BENCH_fleet.json (its fleet section, standalone).
bench:
	$(GO) run ./cmd/chimera-bench -json -out BENCH_sweep.json -fleet-out BENCH_fleet.json

# bench-fleet runs only the multi-job cluster-allocator benchmark:
# equal-split vs planner-guided weighted fleet throughput on the benchmark
# mix, the trace replay, and the cross-pool determinism check.
bench-fleet:
	$(GO) run ./cmd/chimera-bench -fleet-only -fleet-out BENCH_fleet.json

# bench-serve starts chimera-serve, drives every endpoint with the
# closed-loop load generator, and writes BENCH_serve.json (cold/warm
# latency, throughput, cache hit rates, 429 shedding). The load generator
# gates itself: plan responses byte-identical to in-process Plan, warm p50
# ≥ 2× faster than cold, clean shedding under overload.
bench-serve:
	$(GO) build -o bin/chimera-serve ./cmd/chimera-serve
	$(GO) build -o bin/chimera-loadgen ./cmd/chimera-loadgen
	./bin/chimera-serve -addr 127.0.0.1:8642 -max-inflight 4 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	./bin/chimera-loadgen -addr http://127.0.0.1:8642 -out BENCH_serve.json

# bench-router runs the self-contained router scaling benchmark: R
# in-process single-slot replicas behind the consistent-hash router,
# aggregate closed-loop rps at 1 vs R replicas, plus zipfian-skew tail
# latency through the router. Gates (-min-router-scaling,
# -max-zipf-p99-ms) are only meaningful on multi-core machines — replicas
# sharing one core cannot scale.
ROUTER_REPLICAS ?= 3
bench-router:
	$(GO) run ./cmd/chimera-loadgen -router-bench $(ROUTER_REPLICAS) -seed 1 \
		-out BENCH_serve_router.json

# fuzz explores beyond the committed seed corpora (testdata/fuzz replays on
# every plain `go test`) for a bounded time per target, mirroring CI.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzGraphReplayEquivalence -fuzztime=$(FUZZTIME) -run '^$$' ./internal/schedule/
	$(GO) test -fuzz=FuzzDecodeSpeedFactors -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sim/
	$(GO) test -fuzz=FuzzPeakMemoryEquivalence -fuzztime=$(FUZZTIME) -run '^$$' ./internal/sim/

# cover writes the per-function coverage summary CI archives.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tee coverage.txt

clean:
	rm -rf bin coverage.out coverage.txt
