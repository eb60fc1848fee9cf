# Single source of truth for the commands CI runs, so local dev and
# .github/workflows/ci.yml can never drift.

GO ?= go

# The race job forces the worker pool wide open (4 workers, threshold
# 1) so every parallel kernel path is exercised even on small CI
# machines and miniature test grids.
RACE_ENV = IRFUSION_WORKERS=4 IRFUSION_PAR_THRESHOLD=1

.PHONY: all fmt fmt-check vet lint lint-rebaseline build test race loc bench bench-smoke bench-check bench-rebaseline bench-quick manifest-smoke fuzz-smoke chaos-smoke cluster-smoke mp-oracle restart-smoke docs-check cover-check

all: fmt-check vet lint build test

# The project's own static-analysis pass (internal/lint): hotpath
# no-allocation discipline, context propagation, hook resolution,
# %w wrapping, float equality, goroutine containment, and the four
# CFG-based dataflow rules (locksafe, ctxleak, atomicmix, sitedrift —
# see docs/LINTING.md). Findings not recorded in lint.baseline fail
# the build, a SARIF copy is written for code-scanning upload, and the
# run fails if analysis wall clock exceeds 3x the committed
# lint.budget seconds. Rebaseline only for reviewed, accepted findings
# with `make lint-rebaseline`.
LINT_SARIF ?= /tmp/irfusionlint.sarif

lint:
	$(GO) run ./cmd/irfusionlint -baseline lint.baseline -budget lint.budget -sarif $(LINT_SARIF)

lint-rebaseline: ## rewrite lint.baseline from current findings (review the diff before committing)
	$(GO) run ./cmd/irfusionlint -update-baseline

fmt: ## rewrite sources with gofmt
	gofmt -w .

fmt-check: ## fail when any file is not gofmt-clean
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The durability suites (crash/restart, requeue, journal replay) are
# the ones whose failures depended on scheduling; they run three times
# over so a 1-in-N interleaving has three chances to show.
race:
	$(RACE_ENV) $(GO) test -race ./...
	$(RACE_ENV) $(GO) test -race -count=2 -run 'TestCacheConcurrent' ./internal/cache/
	$(RACE_ENV) $(GO) test -race -count=3 ./internal/serve ./internal/journal

# Non-test Go lines, per package and in total. The total is the number
# "less code" claims are held to: tests, the benchmark (_bench) and the
# linter's fixtures do not count.
LOC_FIND = find . -name '*.go' -not -name '*_test.go' -not -path './_bench/*' -not -path './internal/lint/testdata/*'

loc: ## non-test Go lines per package and the total
	@$(LOC_FIND) | xargs -n1 dirname | sort -u | while read d; do \
		printf '%7d %s\n' "$$($(LOC_FIND) -path "$$d/*" -not -path "$$d/*/*" | xargs cat | wc -l)" "$$d"; \
	done
	@printf '%7d total\n' "$$($(LOC_FIND) | xargs cat | wc -l)"

bench: ## full benchmark sweep
	$(GO) test -bench=. -benchmem -run='^$$' .

bench-smoke: ## compile-and-run guard for the hot kernel benchmarks
	$(GO) test -bench='BenchmarkSolverSpMV|BenchmarkParallelSpMV' -benchtime=1x -run='^$$' .

# Bench-regression gate: runs the pinned benchmark set declared in
# bench.baseline (fixed -benchtime=Nx iteration counts) and fails on a
# regression past the tolerance band. Allocation counts and the
# ECO-loop cold/hit speedup ratio are machine-independent and gate
# strictly; wall-clock ns/op gates by a multiplicative factor —
# BENCH_NS_FACTOR overrides the file's (CI passes a generous one
# because runner hardware varies). Rebaseline only for reviewed,
# accepted performance changes with `make bench-rebaseline`.
#
# The committed numbers are from the 2-core reference sandbox (Intel
# Xeon 2.1 GHz, 2 vCPU, go1.24, GOMAXPROCS=2). Allocation counts depend
# on whether the worker pool dispatches: on a 1-CPU host it never does,
# and the converged-solve and SpMV rows read a few hundred allocs/op
# lower than recorded here (the gate only fails upwards).
BENCH_NS_FACTOR ?= 0

bench-check: ## pinned benchmarks vs the committed bench.baseline
	$(GO) run ./cmd/benchcheck -baseline bench.baseline -ns-factor $(BENCH_NS_FACTOR)

bench-rebaseline: ## rewrite bench.baseline's measurements from this machine
	$(GO) run ./cmd/benchcheck -baseline bench.baseline -update

# `go build ./...` and `go vet ./...` skip _bench (underscore
# directories are not packages of ./...), so a change that breaks an
# entry point _bench/layers.go pins compiles everywhere else. This
# vets it and runs its quick mode: tiny dies, short lists, about 6 s,
# every answer check of the full benchmark.
bench-quick: ## vet + quick run of the end-to-end benchmark (_bench): every entry point, every answer check
	$(GO) vet ./_bench
	$(GO) run ./_bench -quick

MANIFEST_OUT ?= /tmp/irfusion-manifest.json

manifest-smoke: ## end-to-end analyze run; fails when the run manifest is missing required signals
	$(GO) run ./cmd/irfusion analyze -size 48 -seed 3 -manifest $(MANIFEST_OUT)
	$(GO) run ./cmd/manifestcheck $(MANIFEST_OUT)

# The chaos profile kills every AMG-rung PCG solve with a numerical
# breakdown. The suite must stay green — the degradation ladder absorbs
# the fault by falling to SSOR-PCG — and the analyze run must produce a
# manifest whose degradation trail proves the fault actually bit
# (manifestcheck -degraded).
CHAOS_SPEC ?= solver.pcg:breakdown:label=numerical.amg
CHAOS_MANIFEST ?= /tmp/irfusion-chaos-manifest.json

# The cache chaos profile attacks the artifact-cache layer of a cached
# 4-repeat ECO loop: repeat 2's lookup returns a poisoned (stale)
# golden solution — the residual guard must reject it — repeat 3 loses
# its entry to a simulated eviction race mid-lookup, and every neighbor
# search pays injected delta-check latency. The run must still produce
# correct results on every repeat, and its manifest must prove the
# cache both served (hit/stale events) and re-stored after each fault
# (manifestcheck -cache).
CACHE_CHAOS_SPEC ?= cache.lookup:stale:times=1;cache.lookup:evict:times=1,after=1;cache.delta:latency:delay=5ms
CACHE_CHAOS_MANIFEST ?= /tmp/irfusion-cache-chaos-manifest.json
# The hit-only manifest: one more exact analysis of the same design
# after the repeats, answered entirely from the artifact cache — zero
# solves by construction. Before manifestcheck grew -allow-hit such
# manifests could not be gated at all (the PR 7 gotcha: gate cold runs
# by hand); now the gate proves the hit happened AND that the manifest
# is otherwise well-formed.
CACHE_HIT_MANIFEST ?= /tmp/irfusion-cache-hit-manifest.json

chaos-smoke: ## full test suite + end-to-end analyze under injected mid-ladder and cache-layer failures
	IRFUSION_FAULTS='$(CHAOS_SPEC)' $(GO) test ./...
	$(GO) run ./cmd/irfusion analyze -size 48 -seed 3 -faults '$(CHAOS_SPEC)' -manifest $(CHAOS_MANIFEST)
	$(GO) run ./cmd/manifestcheck -degraded $(CHAOS_MANIFEST)
	$(GO) run ./cmd/irfusion analyze -size 48 -seed 3 -cache -repeat 4 -faults '$(CACHE_CHAOS_SPEC)' -manifest $(CACHE_CHAOS_MANIFEST) -hit-manifest $(CACHE_HIT_MANIFEST)
	$(GO) run ./cmd/manifestcheck -cache $(CACHE_CHAOS_MANIFEST)
	$(GO) run ./cmd/manifestcheck -allow-hit $(CACHE_HIT_MANIFEST)

# Cluster rehearsal: the in-process shard fleet behind the gateway
# (internal/cluster fleet_test.go) — routing determinism, cache-warm
# affinity, ring remap on shard kill, mid-job failover with handoff
# provenance, and graceful drain — all under the race detector with
# the pool forced wide, because every one of those paths is
# goroutine-heavy by construction.
cluster-smoke: ## gateway + 3-shard fleet rehearsal under -race
	$(RACE_ENV) $(GO) test -race -count=1 ./internal/cluster/

# Mixed-precision correctness gate: the Cholesky golden-oracle suite
# (full, mixed, and SELL-forced rows must all land on the direct
# factorization's answer) and the SELL/CSR + float32 equivalence
# property suites, under the race detector with the pool forced wide —
# the format and precision kernels are exactly the code the pool
# parallelizes. Then one end-to-end `analyze -precision mixed` run
# whose manifest must prove the mixed rung actually served
# (manifestcheck -mp).
MP_MANIFEST ?= /tmp/irfusion-mp-manifest.json

mp-oracle: ## golden-oracle + format/precision equivalence suites under -race, then an end-to-end mixed-precision run
	$(RACE_ENV) $(GO) test -race -count=1 -run 'TestPCGMatchesCholeskyOracle|TestGoldenSolutionFile' ./internal/solver
	$(RACE_ENV) $(GO) test -race -count=1 -run 'TestSELL|TestCSR32|TestSelectFormat' ./internal/sparse
	$(RACE_ENV) $(GO) test -race -count=1 -run 'TestMixedPrecision' ./internal/core
	$(RACE_ENV) $(GO) test -race -count=1 -run 'TestWarmStartAcrossPrecisions' ./internal/cache
	$(GO) run ./cmd/irfusion analyze -size 48 -seed 3 -precision mixed -manifest $(MP_MANIFEST)
	$(GO) run ./cmd/manifestcheck -mp $(MP_MANIFEST)

# Crash-durability rehearsal: cmd/restartsmoke drives both recovery
# paths end to end against in-process servers — a mid-solve injected
# panic that the worker must requeue once and finish from its
# checkpoint, and a hard Crash() (the on-disk image of kill -9) that
# the next incarnation must recover by replaying the write-ahead
# journal. Both resulting manifests must prove a real mid-solve resume
# (manifestcheck -resume: resume section, outcome "resumed", positive
# iteration) — a run that silently re-solved from scratch fails the
# gate.
REQUEUE_MANIFEST ?= /tmp/irfusion-requeue-manifest.json
RESTART_MANIFEST ?= /tmp/irfusion-restart-manifest.json

restart-smoke: ## crash/requeue recovery rehearsal gated by manifestcheck -resume
	$(GO) run ./cmd/restartsmoke -manifest $(REQUEUE_MANIFEST) -restart-manifest $(RESTART_MANIFEST)
	$(GO) run ./cmd/manifestcheck -resume $(REQUEUE_MANIFEST)
	$(GO) run ./cmd/manifestcheck -resume $(RESTART_MANIFEST)

docs-check: ## fail when any doc link or file:line anchor no longer resolves
	$(GO) run ./cmd/docscheck README.md docs

FUZZTIME ?= 30s

fuzz-smoke: ## short fuzz runs of the SPICE parser and the journal replay path
	$(GO) test -fuzz=FuzzParseSPICE -fuzztime=$(FUZZTIME) -run='^$$' ./internal/spice
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) -run='^$$' ./internal/journal

# Total-statement-coverage floor. Measured at 76.4% when recorded
# (stable across repeat runs); the margin absorbs run-to-run noise
# from timing-dependent serve paths. Raise it when new tests push
# coverage up — never lower it to make a PR pass.
COVERAGE_BASELINE ?= 75.8
COVER_PROFILE ?= /tmp/irfusion-cover.out

cover-check: ## fail when total statement coverage drops below COVERAGE_BASELINE
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@total="$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }')"; \
	echo "total coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	if ! awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }'; then \
		echo "coverage $$total% fell below the $(COVERAGE_BASELINE)% baseline"; exit 1; \
	fi
