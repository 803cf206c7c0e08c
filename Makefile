# Tier-1 verification targets. `make check` is the gate: vet + build +
# test + race (`make ci` is an alias). The race target matters here: the
# solver's WithParallelism paths are required to be race-clean AND
# bit-identical to sequential runs.

GO ?= go

.PHONY: all vet fmt-check build test test-race test-faults test-alloc-pins fuzz-arena fuzz-bound fuzz-emax fuzz-fused fuzz-dist fuzz-wire bench bench-index bench-smoke examples check ci

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

# test-alloc-pins is the nightly allocation gate, every test named *Allocs*
# in the module: the nil tracer and the disabled flight recorder must add
# ZERO allocations to the paths they instrument; the disabled
# fault-injection hook (faults.Fire, inside every served request), the
# latency histograms' Observe (each serving shard's and the gateway's HTTP
# histogram) and Prometheus label escaping must allocate nothing; a
# snapshot open must allocate a constant whatever the instance size; the
# warmed exact E-cost kernels (Arena.ExpectedMax with the layout its arena
# owns, Arena.ExpectedMaxFlat, Arena.ExpectedMaxMinFlat with its
# visited-point bitset, and SwapEvaluator.PrepareBase and EvalSwap on
# planar, d = 3, finite-metric and DistFunc instances, unbounded and with
# both prune certificates armed) must allocate nothing; and a warm
# unassigned solve must take its scan state from the pool instead of
# allocating it.
# These tests run in `make test` too; the standalone target fails the
# nightly loudly and in isolation if a change loses a nil guard or a
# reused buffer.
test-alloc-pins:
	$(GO) test -v -run 'Allocs' ./...

# fuzz-arena runs the snapshot decoder fuzzer for $(FUZZTIME): arbitrary
# bytes through the full .ukc validation pipeline (nightly CI).
FUZZTIME ?= 5m
fuzz-arena:
	$(GO) test -fuzz FuzzOpen -fuzztime $(FUZZTIME) -run '^$$' ./internal/arena

# fuzz-bound runs the prune-bound soundness fuzzer for $(FUZZTIME): random
# Euclidean (d ∈ {1, 2, 3}) and finite metric instances, point masses
# skewed inside the validation tolerance, through t*(c)·G∞ ≤ EvalSwap(base,
# c) + 1e-12, every point's expected-excess bound ≤ EvalSwap(base, c) +
# 1e-12, and "a candidate the armed certificates skip costs ≥ cost₀·(1 −
# 1e-12)" — the inequalities the pruned scan's bit-identical-trajectory
# claim rests on (nightly CI).
fuzz-bound:
	$(GO) test -fuzz FuzzLowerBound -fuzztime $(FUZZTIME) -run '^$$' ./internal/core

# fuzz-emax runs the exact expected-max kernel fuzzer for $(FUZZTIME): small
# random RVs with ties, duplicates and negative values through
# Arena.ExpectedMaxFlat, checked against the enumeration oracle at 1e-12
# relative (nightly CI).
fuzz-emax:
	$(GO) test -fuzz FuzzExpectedMaxFlat -fuzztime $(FUZZTIME) -run '^$$' ./internal/emax

# fuzz-fused runs the fused swap kernel fuzzer for $(FUZZTIME): up to eight
# RVs of up to four atoms, quarter-grid values with ±0 and ties, +Inf base
# values and masses skewed within the validation tolerance, through
# Arena.ExpectedMaxMinFlat, which must equal Arena.ExpectedMaxFlat on the
# materialized minima bit for bit when disarmed and cut only when the exact
# result reaches cost₀ up to 1e-12 relative when armed (nightly CI).
fuzz-fused:
	$(GO) test -fuzz '^FuzzExpectedMaxMinFlat$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/emax

# fuzz-dist runs the flat Euclidean distance kernel fuzzer for $(FUZZTIME):
# random dimensions up to 8 and random finite coordinates, from ±0 to
# magnitudes whose squares underflow or overflow, through geom.DistsFlat,
# geom.MinDistFlat (with and without its early-stop floor) and
# geom.MinDistsFlat, checked bit for bit against geom.Dist (nightly CI).
fuzz-dist:
	$(GO) test -fuzz FuzzDistsFlat -fuzztime $(FUZZTIME) -run '^$$' ./internal/geom

# fuzz-wire runs the workload request fuzzer for $(FUZZTIME): arbitrary body
# bytes POSTed in process to each of the five workload paths of a gateway
# holding one tiny instance of each kind. Every answer must be 200, 400,
# 404, 413 or 422 (504 only for a request that set a deadline), never a 500
# or a panic, and a 200 body must decode into the client's response type
# with unknown fields disallowed (nightly CI).
fuzz-wire:
	$(GO) test -fuzz FuzzWorkloadRequest -fuzztime $(FUZZTIME) -run '^$$' ./cmd/ukserver

# bench runs every microbenchmark of the library, the serving layer, the
# snapshot store and the observability package (slow) and prints the
# results. ukbench/ (bench-smoke below, or ukbench/run.sh) is the
# end-to-end benchmark of record; the committed BENCH_*.json files are
# history and no target writes them.
bench:
	$(GO) test -run '^$$' -benchmem -bench . . ./serve ./store ./obs

# bench-index runs BenchmarkCandIndexScan/{off,prune} once on the
# n=m=1000 acceptance instance and prints ns/scan, prune_rate (the t*·G∞
# tier), excess_rate (the expected-excess tier) and cost_ratio per row.
# The off row is the unpruned scan and prune the default pruned one, so
# the ns/scan ratio is the per-scan speedup on the same instance and
# seeds. The bench itself fails when the prune rate drops
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
