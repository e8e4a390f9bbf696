GO ?= go

# The tier-1 gate: everything a PR must keep green.
.PHONY: all
all: check

.PHONY: check
check: vet lint build test race fuzz-smoke

.PHONY: vet
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; test -z "$$unformatted" || { echo "gofmt -l lists:" >&2; echo "$$unformatted" >&2; exit 1; }

# The npravet invariant suite (internal/analyzers): determinism
# (detlint), error taxonomy (errtaxonomy), panic-freedom (panicfree),
# context plumbing (ctxplumb), scratch-pool aliasing (poolalias),
# function-cache aliasing (cachealias), frozen rewrite-body mutation
# (frozenfunc), sleep hygiene (sleeplint), and the concurrency trio
# (lockorder, goleak, atomicmix), plus verification of the //lint:
# directives themselves. The three aliasing passes and the trio run on
# the anz CFG/dataflow layer. The tree is loaded and
# type-checked once and the eleven analyzers run concurrently over the
# shared packages, so the suite costs barely more wall-clock than its
# slowest pass. See docs/INTERNALS.md "Static invariants & linting".
.PHONY: lint
lint:
	$(GO) run ./cmd/npravet ./...

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

# The packages with real concurrency: the worker pool, the allocator
# fan-outs (setup, pricing, SRA sweep) that write per-index slots, the
# serving layer (singleflight, batching, drain), and the analyzer suite,
# whose eleven passes run concurrently over one shared load.
.PHONY: race
race:
	$(GO) test -race ./internal/analyzers/... ./internal/core/... ./internal/funccache/... ./internal/parallel/... ./internal/serve/...

# Short native-fuzzer runs: the allocation API with fault injection
# armed from the input (catches panics and verification/semantics
# breaks), and the content key against Format on two assembled sources.
.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAllocateARA -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzFuncKey -fuzztime 10s ./internal/ir/

# The guarded allocator benchmarks and their invocation. `make bench`
# runs them 5x with allocation stats and emits a candidate baseline;
# `make benchcmp` runs them once and fails if any guarded ns/op regressed
# more than 10% against the committed BENCH_alloc.json.
BENCH_PATTERN = BenchmarkAllocateARA|BenchmarkSolveCached|BenchmarkColdSolve
BENCH_ARGS    = -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 10x -benchmem .

.PHONY: bench
bench:
	$(GO) test $(BENCH_ARGS) -count 5 | $(GO) run ./internal/tools/benchcmp -emit BENCH_alloc.candidate.json

.PHONY: benchcmp
benchcmp:
	$(GO) test $(BENCH_ARGS) -count 3 | $(GO) run ./internal/tools/benchcmp -baseline BENCH_alloc.json
	$(GO) run ./cmd/npbench -phases -funccache -packets 16 -max-warm-rewrite-share 0.4

# The serving-layer benchmark: nploadgen drives an in-process npserve at
# duplicate-ratio 0.5 for 10s and writes the latency/dedup report to
# BENCH_serve.json. Gated on the ISSUE-5 acceptance criteria: no 5xx,
# singleflight hit rate > 0.4, and p99 under 5x the cold-Solve time from
# BENCH_alloc.json (7.14ms -> 36ms ceiling).
.PHONY: serve-bench
serve-bench:
	$(GO) run ./cmd/nploadgen -inprocess -c 8 -duration 10s -dup 0.5 \
		-max-5xx 0 -min-dedup 0.4 -max-p99-ms 36 -report BENCH_serve.json

# The chaos soak: a fault-injecting proxy (TCP resets, latency,
# truncated/garbled bodies, 5xx bursts) in front of an in-process
# npserve, the resilient client in front of that, two tenants at 3:1
# DRR weights with the engine deliberately made the bottleneck. Gated
# on the ISSUE-7 acceptance criteria: eventual success >= 0.999, zero
# retries of 400/422 (asserted inside the check), tenant completion
# shares within 15% of the weight shares, and a bounded p99.
.PHONY: serve-bench-chaos
serve-bench-chaos:
	$(GO) run ./cmd/nploadgen -chaos -inprocess -requests 600 \
		-min-eventual 0.999 -fair-tol 0.15 -max-p99-ms 500 \
		-report BENCH_serve_chaos.json

# The adversarial benchmark: cache-hostile progen shapes (trampoline /
# boundary / palette / nearcollision) under heterogeneous hardware
# profiles against an in-process server with deliberately tiny cache
# tiers. Gated on the ISSUE-10 acceptance criteria: zero cross-profile
# alias mismatches (always enforced), every shape served, no 5xx,
# relocation hits at most 0.9 of all rewrite-tier lookups (exact hits,
# relocation hits and misses; exact entries do not hit under this
# workload, so this bounds the relocation hit rate), at most 8
# evictions per request summed over function-cache records, rewrites
# (by the 32-per-body bound or with their record) and bodies, profile
# fairness within 60% of equal shares (profiles do unequal work, so
# shares drift with speed), and a bounded p99.
.PHONY: serve-bench-adv
serve-bench-adv:
	$(GO) run ./cmd/nploadgen -adversarial -inprocess -requests 600 -c 2 \
		-max-5xx 0 -max-reloc-share 0.9 -max-evict-per-req 8 \
		-fair-tol 0.6 -max-p99-ms 250 -report BENCH_serve_adv.json
