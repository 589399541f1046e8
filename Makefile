# Tier-1 verification plus the race-certified concurrency surface.
# `make check` is the gate every PR must pass; it also checks gofmt, vets and runs the
# tests of the separate cmd/bench module (workload digests, metric plumbing) and
# every Go benchmark of the root, internal/core, internal/sim, internal/mesh,
# internal/mem, internal/am, internal/machine and internal/predict once
# (benchsmoke), so a benchmark that fails at run time fails the gate.
# `make profile` captures host CPU/heap profiles of a tiny figure
# regeneration (see the bench target for simulated-time performance
# tracking).

GO ?= go

.PHONY: check fmt build test race bench benchsmoke fuzz lint profile

check: fmt build race test lint benchsmoke
	$(GO) vet ./...
	$(GO) -C cmd/bench vet .
	$(GO) -C cmd/bench test .

# Formatting gate: gofmt -l must list no .go file. The lint fixtures
# under testdata/ are exempt: they carry hand-aligned //want comments.
fmt:
	@out=$$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -exec gofmt -l {} +); \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# Determinism and simulation-safety analysis (internal/lint), five
# per-package checks: unseededrand, maporder, rawconc, closedscope and
# intmath. Zero diagnostics — including stale //lint:allow comments — is
# the bar, and internal/lint's TestModulesClean holds go test ./... to it
# too. See DESIGN.md §10.
# Patterns resolve as for go build, so ./... includes the analyzer and
# its CLI but stops at cmd/bench/go.mod: the second call lints the
# benchmark module, with the root module's packages type-checked as its
# dependencies.
lint:
	$(GO) run ./cmd/simlint ./...
	$(GO) -C cmd/bench run repro/cmd/simlint ./...

test:
	$(GO) test ./...

# The parallel runner and the event engine are the only concurrent code;
# certify them under the race detector on every check. The suite runs
# real tiny-scale simulations (parallel sweeps, predicted-sweep
# validation batches) and exceeds go test's 10-minute default under
# -race.
race:
	$(GO) test -race -timeout 25m ./internal/core/... ./internal/sim/...

# Short fixed-budget fuzzing: random op programs against the coherence
# protocol's directory/cache invariant checker, random strings against
# the fault/noise spec grammar (Parse must never panic, and accepted
# specs must round-trip through their canonical form), and random
# (time, scale) pairs against the predictor's rounding (it must equal
# math.Round wherever the product fits an int64).
# Deterministic seeds run in `make test`; this explores beyond them.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/mem -run '^$$' -fuzz FuzzProtocolOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzParseSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/predict -run '^$$' -fuzz FuzzScaleTime -fuzztime $(FUZZTIME)

# Host-side profiling of a figure regeneration: where the simulator
# itself spends CPU and heap. Inspect with `go tool pprof /tmp/paperbench.cpu`.
PROFILE_FIG ?= 4
profile:
	$(GO) run ./cmd/paperbench -fig $(PROFILE_FIG) -scale tiny \
		-cpuprofile /tmp/paperbench.cpu -memprofile /tmp/paperbench.mem > /dev/null
	@echo "profiles written: /tmp/paperbench.cpu /tmp/paperbench.mem"

# One iteration of every benchmark: the per-figure and ablation
# benchmarks at the root, the sweep benchmarks of internal/core, the
# engine benchmarks of internal/sim, the packet benchmark of
# internal/mesh, the coherence-miss benchmark of internal/mem, the
# null-message benchmark of internal/am, the op-run benchmark of
# internal/machine and the model build, solve and tolerance-search
# benchmarks of internal/predict (about 30 s on 2 cores).
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/core ./internal/sim ./internal/mesh ./internal/mem ./internal/am ./internal/machine ./internal/predict

# Performance tracking: event-engine allocation profile, host cost of a
# thread handoff and of a wake a spin absorbs, host cost and
# allocations of one packet, of one coherence miss and of one null
# active-message round trip, of 16 plain-hit reads and 16 computes as
# one op run and as calls on the thread, of one model build, one solve
# and one latency-tolerance search over a synthetic 30k-event model,
# and serial vs parallel sweep throughput.
bench:
	$(GO) test -bench 'BenchmarkEngine|BenchmarkThreadHandoff|BenchmarkThreadSpin' -benchmem -run xxx ./internal/sim/
	$(GO) test -bench BenchmarkSend -benchmem -run xxx ./internal/mesh/
	$(GO) test -bench BenchmarkRemoteMiss -benchmem -run xxx ./internal/mem/
	$(GO) test -bench BenchmarkNullMessage -benchmem -run xxx ./internal/am/
	$(GO) test -bench BenchmarkDo -benchmem -run xxx ./internal/machine/
	$(GO) test -bench 'BenchmarkBuild|BenchmarkSolve|BenchmarkLatencyTolerance' -benchmem -run xxx ./internal/predict/
	$(GO) test -bench 'BenchmarkClockSweep|BenchmarkContextSwitchSweepMemoized' -benchtime 3x -run xxx ./internal/core/
