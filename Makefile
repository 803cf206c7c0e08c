# Tier-1 verification targets. `make check` is the gate: vet + build +
# test + race (`make ci` is an alias). The race target matters here: the
# solver's WithParallelism paths are required to be race-clean AND
# bit-identical to sequential runs.

GO ?= go

.PHONY: all vet fmt-check build test test-race test-faults test-alloc-pins fuzz-arena fuzz-bound fuzz-emax fuzz-dist bench bench-index bench-smoke examples check ci

all: check

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# test-faults is the nightly fault-injection sweep under the race
# detector: the seeded panic/error/latency soak through the serving layer,
# the drain lifecycle and Close/Register race, the torn-write quarantine
# torture test, and the client retry/circuit-breaker contract.
test-faults:
	$(GO) test -race -run 'Fault|Fire|Panic|Drain|Shutdown|Quarantine|TornWrite|CloseRegister|Breaker|Retry' \
		./serve ./internal/faults ./client ./cmd/ukserver

# test-alloc-pins is the nightly allocation gate: the nil tracer and the
# disabled flight recorder must add ZERO allocations to the paths they
# instrument, and the warmed exact E-cost kernels (Arena.ExpectedMax,
# Arena.ExpectedMaxFlat, Arena.ExpectedMaxMinFlat,
# SwapEvaluator.PrepareBase and EvalSwap, unbounded and with a prune
# threshold armed) must allocate nothing.
# These tests run in `make test` too; the standalone target fails the
# nightly loudly and in isolation if a change loses a nil guard or a
# reused buffer.
test-alloc-pins:
	$(GO) test -v -run 'Allocs' ./obs ./serve ./internal/emax ./internal/core

# fuzz-arena runs the snapshot decoder fuzzer for $(FUZZTIME): arbitrary
# bytes through the full .ukc validation pipeline (nightly CI).
FUZZTIME ?= 5m
fuzz-arena:
	$(GO) test -fuzz FuzzOpen -fuzztime $(FUZZTIME) -run '^$$' ./internal/arena

# fuzz-bound runs the prune-bound soundness fuzzer for $(FUZZTIME): random
# metric instances, point masses skewed inside the validation tolerance,
# through t*(c)·G∞ ≤ EvalSwap(base, c) + 1e-12 and "a candidate the armed
# threshold skips costs ≥ cost₀·(1 − 1e-12)" — the inequalities the pruned
# scan's bit-identical-trajectory claim rests on (nightly CI).
fuzz-bound:
	$(GO) test -fuzz FuzzLowerBound -fuzztime $(FUZZTIME) -run '^$$' ./internal/core

# fuzz-emax runs the exact expected-max kernel fuzzer for $(FUZZTIME): small
# random RVs with ties, duplicates and negative values through
# Arena.ExpectedMaxFlat, checked against the enumeration oracle at 1e-12
# relative (nightly CI).
fuzz-emax:
	$(GO) test -fuzz FuzzExpectedMaxFlat -fuzztime $(FUZZTIME) -run '^$$' ./internal/emax

# fuzz-dist runs the flat Euclidean distance kernel fuzzer for $(FUZZTIME):
# random dimensions up to 8 and random finite coordinates, from ±0 to
# magnitudes whose squares underflow or overflow, through geom.DistsFlat and
# geom.MinDistsFlat, checked bit for bit against geom.Dist (nightly CI).
fuzz-dist:
	$(GO) test -fuzz FuzzDistsFlat -fuzztime $(FUZZTIME) -run '^$$' ./internal/geom

# bench runs every microbenchmark of the library, the serving layer, the
# snapshot store and the observability package (slow) and prints the
# results. ukbench/ (bench-smoke below, or ukbench/run.sh) is the
# end-to-end benchmark of record; the committed BENCH_*.json files are
# history and no target writes them.
bench:
	$(GO) test -run '^$$' -benchmem -bench . . ./serve ./store ./obs

# bench-index runs BenchmarkCandIndexScan/{off,prune} once on the
# n=m=1000 acceptance instance and prints ns/scan, prune_rate and
# cost_ratio per row. The off row is the unpruned cached scan and prune the
# default pruned one, so the ns/scan ratio is the per-scan speedup on the
# same instance and seeds. The bench itself fails when the prune rate drops
# below the 0.50 acceptance floor or a pruned trajectory diverges from the
# unpruned one (cost_ratio must be exactly 1.0).
bench-index:
	$(GO) test -run '^$$' -benchmem -benchtime 1x -bench 'BenchmarkCandIndexScan' .

# bench-smoke builds and self-tests the benchmark (ukbench/, a nested
# module outside `go build ./...`): all three workloads at tiny sizes,
# untraced and traced, then the module's own tests. It is the only build
# that sees a signature change in the internal/core functions the
# benchmark's replay calls.
bench-smoke:
	bash ukbench/run.sh --smoke
	$(GO) -C ukbench test ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/sensornet
	$(GO) run ./examples/roadnetwork
	$(GO) run ./examples/adversarial
	$(GO) run ./examples/streaming
	$(GO) run ./examples/serving
	$(GO) run ./cmd/ukfreeze -selfcheck

check: vet fmt-check build test test-race

ci: check
