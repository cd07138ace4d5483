# CI and humans run the same commands: the .github/workflows/ci.yml jobs
# are thin wrappers around these targets.

GO ?= go

.PHONY: all build test race race-sweep lint audit bench-build bench-smoke cli-smoke fuzz cover clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-sweep runs the daemon packages (the engine's pool and memo tables,
# the HTTP chassis and the three daemons built on it), the lock-free
# metrics core they all record into (internal/obs) and the fleet layer
# (plan curves shared by a live sim and its forks) twenty times, and the
# planner core five times, under the race detector; one failing run fails
# the target. The engine runs at -cpu 1,2,4: on one P a pool saturates and
# top-level callers queue for its token, on two the caller and one helper
# contend for every index of a call, on four a caller lends several
# helpers at once — different code, and the runner's core count should not
# pick which is swept. The fleet run is -short: its single-threaded oracle suites shrink
# (the classic-trace differential, TestClassicTraceIsArrivalsOnlyReplay,
# runs a quarter of its seeds), the concurrency tests do not. The schedule and perfmodel packages are in
# because graph compile and replay draw from two process-wide pools
# (topoScratchPool, readoutPool) that concurrent planners share; they run
# -shuffle=on, so that a sequential test which depends on another test's
# side effects fails now that their sweeps run in parallel. The last line is
# every package twice, for whatever shares state outside the ones named
# above.
race-sweep:
	$(GO) test -race -count=20 -cpu 1,2,4 ./internal/engine
	$(GO) test -race -count=20 ./internal/httpd ./internal/serve ./internal/router ./internal/controller ./internal/obs
	$(GO) test -race -count=20 -short ./internal/fleet
	$(GO) test -race -count=5 -shuffle=on ./internal/schedule ./internal/perfmodel
	$(GO) test -race -count=2 ./...

# bench-build vets and tests the benchmark module. bench/ is outside the
# root module (it is compiled against internal APIs through a replace
# directive), so build/test/lint above never see it. Running the benchmark
# itself is `bash bench/run.sh` (see bench/README.md and BENCHMARK.json);
# it is the repository's only one.
bench-build:
	cd bench && $(GO) vet . && $(GO) test .

# bench-smoke runs every in-module benchmark of the root package (one per
# paper table and figure, bench_test.go), of the planner core (with the
# memory model in internal/sim), of the engine, of the fleet allocator, of
# the live controller, of the serve tier and of the metrics core
# (internal/obs) once. `go test` only compiles benchmarks; one iteration
# each runs the checks they carry (a figure benchmark fails when its
# experiment does, a kernel benchmark times the row width it names, a
# histogram snapshot checks its count, a controller batch or what-if checks
# its reply, the serve plan benchmarks check that every timed request missed,
# or hit, the response cache). It measures nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/schedule ./internal/perfmodel ./internal/engine ./internal/sim ./internal/fleet ./internal/controller ./internal/serve ./internal/obs

# cli-smoke builds chimera-train, chimera-sim, chimera-viz and chimera-plan
# and runs them end to end: a verified chimera-train run, a PipeDream run,
# a chimera-sim -json run (AutoRun: the memory fit, then the simulation with
# its per-worker peaks) and a refused one (48 layers do not split into 5
# stages), chimera-sim and chimera-viz refusing an unknown -concat name, and
# chimera-plan planning as a table and as -json and refusing an odd-length
# -speed list (the /v1/plan codec's rule). Their Go tests pin the refusal
# messages (cmd/chimera-sim, cmd/chimera-viz); here one probe per input that
# once crashed a CLI must exit 1 within 20 s without a panic or a fatal
# runtime error: chimera-sim -b 0 and -w 0 (a division by zero), chimera-viz
# one op above serve.MaxScheduleOps (D·N = 1024·1025; an unbounded schedule
# ran out of memory), chimera-train -b 0 (a hang) and -heads 0 (a division
# by zero). The binaries are built first so a compile error cannot pass for
# a refusal.
cli-smoke:
	$(GO) build -o bin/ ./cmd/chimera-train ./cmd/chimera-sim ./cmd/chimera-viz ./cmd/chimera-plan
	bin/chimera-train -iters 3
	bin/chimera-train -scheme pipedream -iters 2 -verify=false
	bin/chimera-sim -json -d 4 -w 8 -b 8
	@out="$$(bin/chimera-sim -scheme gpipe -d 5 -w 1 -b 8 -bhat 40 2>&1)"; status=$$?; \
	if [ $$status -eq 0 ]; then echo "chimera-sim accepted 48 layers at D=5"; exit 1; fi; \
	case "$$out" in *"do not split evenly"*) ;; *) echo "chimera-sim at D=5: $$out"; exit 1;; esac
	@for cli in chimera-sim chimera-viz; do \
		if bin/$$cli -concat bogus; then echo "$$cli accepted -concat bogus"; exit 1; fi; \
	done
	@for probe in "chimera-sim -b 0" "chimera-sim -w 0" "chimera-viz -d 1024 -n 1025" \
		"chimera-train -b 0" "chimera-train -heads 0"; do \
		out="$$(timeout 20 bin/$$probe 2>&1)"; status=$$?; \
		if [ $$status -ne 1 ]; then echo "$$probe: exit $$status, want 1: $$out"; exit 1; fi; \
		case "$$out" in *"panic:"*|*"fatal error:"*) echo "$$probe crashed: $$out"; exit 1;; esac; \
		echo "$$probe: $$out"; \
	done
	bin/chimera-plan -model bert48 -p 16 -bhat 128
	bin/chimera-plan -model bert48 -p 16 -bhat 128 -json
	@if bin/chimera-plan -speed 1,2,1; then echo "chimera-plan accepted -speed 1,2,1"; exit 1; fi

# lint runs audit first, then vet and gofmt. Last, every test, fuzz target
# and benchmark DESIGN.md or README.md names must exist
# (scripts/cited-tests.sh; a Parent/Sub name needs "Sub" in Parent's
# package's test files): a doc's `go test -run` pattern that matches nothing
# passes without a word.
lint: audit
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi
	@GO=$(GO) bash scripts/cited-tests.sh

# audit (scripts/audit) type-checks the non-test code of the module and of
# bench/ with go/types and fails on two things. First, a package-level
# declaration under internal/ (func, method, const, var or type, exported or
# not) that no non-test file uses: one only tests reach belongs in a test
# file. A method also counts as used when its type implements an interface
# that has it (error, an exported interface of a loaded package, or one
# module code writes), and so does every exported method of a type the root
# facade aliases. What only an unexported standard-library interface
# reaches is on the allowlist, each entry with its reason. Second, a
# non-test import against its import table: only tests may import the
# reference replay interpreter (internal/refinterp; the library has one
# replay core, the compiled graph), and every import points down DESIGN.md
# §1's layer diagram, which the table writes as data.
audit:
	$(GO) run ./scripts/audit

# fuzz explores beyond the committed seed corpora (testdata/fuzz replays on
# every plain `go test`) for a bounded time per target; CI runs it with the
# default budget. Each target goes through fuzz-one.
FUZZTIME ?= 10s

# fuzz-one fuzzes target $(2) of package $(1). A -fuzz pattern that matches
# no fuzz test exits 0 having fuzzed nothing, so the pattern is anchored and
# `go test -list` must find the target first: a deleted or renamed target
# fails the run instead of silently dropping out of it.
define fuzz-one
	@$(GO) test -list '^$(2)$$' $(1) | grep -qx '$(2)' || { echo "fuzz: no fuzz test $(2) in $(1)"; exit 1; }
	$(GO) test -fuzz='^$(2)$$' -fuzztime=$(FUZZTIME) -run '^$$' $(1)
endef

# fuzz first lists every fuzz test in the module and fails on one that no
# fuzz-one line below names: a new target would otherwise only ever replay
# its seed corpus (the reverse of fuzz-one's check).
fuzz:
	@missing="$$($(GO) test -list '^Fuzz' ./... | grep '^Fuzz' | sort -u | while read t; do \
		grep -q "fuzz-one,[^,]*,$$t)" $(firstword $(MAKEFILE_LIST)) || echo "$$t"; done)"; \
	if [ -n "$$missing" ]; then echo "fuzz: not fuzzed by make fuzz:" $$missing; exit 1; fi
# Graph replay vs the reference interpreter.
	$(call fuzz-one,./internal/schedule/,FuzzGraphReplayEquivalence)
# Closed-form residency vs op walk (random even D ≤ 256, N ≤ 4096, concat
# mode): equal whenever it answers, and fails exactly as Chimera.
	$(call fuzz-one,./internal/schedule/,FuzzResidencyClosedForm)
# Closed-form (Cf, Cb) vs the two-probe CriticalPath (random even D ≤ 256,
# N ≤ 4096, F, concat mode): equal whenever it answers, and fails exactly
# as Chimera.
	$(call fuzz-one,./internal/schedule/,FuzzCriticalClosedForm)
# Closed-form free regions vs the replay read-out (random even D ≤ 256,
# N ≤ 8D, F, concat mode, backward cost): equal whenever it answers, no
# table out of scope, and fails exactly as Chimera.
	$(call fuzz-one,./internal/schedule/,FuzzFreeRegionsClosedForm)
# Closed-form compute makespan vs the replay (random even D ≤ 256, N ≤ 8D, F,
# concat mode, four costs in and out of its cone): equal whenever it answers,
# nothing out of scope or out of the cone, and fails exactly as Chimera.
	$(call fuzz-one,./internal/schedule/,FuzzComputeMakespanClosedForm)
# Speed-factor codec round-trip.
	$(call fuzz-one,./internal/sim/,FuzzDecodeSpeedFactors)
# Profile memory model (PeakMemory, FitsMemory) vs the op-walk oracle, on
# the fuzzer's schedule, model shape and batch.
	$(call fuzz-one,./internal/sim/,FuzzPeakMemoryEquivalence)
# Direct Chimera's closed-form fit vs FitsMemory on the built schedule
# (random even D ≤ 64, N ≤ 8D, B, W, ZeRO, model shape), at a device memory
# within bytes of either threshold.
	$(call fuzz-one,./internal/sim/,FuzzChimeraFitEquivalence)
# Free regions read off the engine's graph for a Chimera key vs the built
# schedule's own and vs the closed form where it answers (random even
# D ≤ 64, N ≤ 8D, F ∈ {1, 2}, concat mode, backward cost).
	$(call fuzz-one,./internal/engine/,FuzzFreeRegions)
# Fleet scenario resolvers (example scenarios as seeds): never panic; an
# accepted classic trace stays within the event bound and resolves the same
# cluster and jobs as its elastic twin.
	$(call fuzz-one,./internal/serve/,FuzzFleetScenarioResolve)
# Body memo vs a direct-mapped model (a fuzzed sequence of Get calls on a
# small table): every value is its body's, a failed derive is never served,
# and the hit and miss counts are the model's.
	$(call fuzz-one,./internal/httpd/,FuzzBodyMemo)
# Planner breakpoints vs PlanOn: the fleet searches visit only the listed
# P values; off the list, PlanOn must answer ErrInfeasible.
	$(call fuzz-one,./internal/perfmodel/,FuzzPlanBreakpoints)
# Elastic preemption vs the quantum-walk oracle: one incremental re-plan from
# a fuzzed resident state (up to 12 nodes of four speeds, two to six sparse
# jobs, capped or not, shares, starvation ages, penalty); equal results and
# node ids.
	$(call fuzz-one,./internal/fleet/,FuzzPreemptMatchesOracle)
# Controller allocation reuse and splicing vs json.Marshal: a fuzzed next
# allocation encoded against a fuzzed base (-0 against 0, duplicated and
# unsorted traces, a job renamed under the same trace, NaN and infinities):
# the same bytes, each share's span its own encoding, and an error exactly
# where json.Marshal errs.
	$(call fuzz-one,./internal/controller/,FuzzAllocationEncoding)

# cover writes the per-function coverage summary CI archives.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tee coverage.txt

clean:
	rm -rf bin coverage.out coverage.txt .bench_build bench/out
