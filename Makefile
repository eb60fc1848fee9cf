# Single source of truth for the commands CI runs, so local dev and
# .github/workflows/ci.yml can never drift.

GO ?= go

.PHONY: all fmt fmt-check vet cross lint build test race loc loc-check bench bench-smoke bench-check bench-rebaseline bench-quick fuzz-smoke docs-check cover-check paper-check

all: fmt-check vet lint build test

# The project's own static-analysis pass (internal/lint), nine rules:
# hotpath no-allocation discipline, context propagation, hook
# construction, %w wrapping, float equality, goroutine containment,
# exported names with no caller outside their package (exportuse),
# and the two rules on a control-flow graph (locksafe, ctxleak) —
# see docs/LINTING.md. Every finding fails the
# build; a finding is accepted only by a line waiver with a rationale
# in the source. The output is one `file:line: rule: message` line per
# finding, which CI's problem matcher turns into diff annotations.
lint:
	$(GO) run ./cmd/irfusionlint

fmt: ## rewrite sources with gofmt
	gofmt -w .

fmt-check: ## fail when any file is not gofmt-clean
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The amd64 GEMM leaf is assembly (internal/nn/gemm_amd64.s); every
# other architecture runs the Go loop through gemm_other.go, which no
# amd64 build compiles. Vet the tree and compile the two test binaries
# that reach the leaf for arm64 — compile only, nothing is run, no
# emulator and no download is needed — so the fallback cannot rot.
CROSS_OUT ?= /tmp

cross: ## vet and compile-only for arm64: the GEMM fallback file builds
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) test -c -o $(CROSS_OUT)/irfusion-nn-arm64.test ./internal/nn
	GOARCH=arm64 $(GO) test -c -o $(CROSS_OUT)/irfusion-models-arm64.test ./internal/models

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The durability suites (crash/restart, journal replay) are
# the ones whose failures depended on scheduling; they run three times
# over so a 1-in-N interleaving has three chances to show.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 -run 'TestCacheConcurrent' ./internal/cache/
	$(GO) test -race -count=3 ./internal/serve ./internal/journal

# Non-test source lines, per package and in total: Go and, from PR 28
# on, assembly — it is code and may not hide from the ratchet. The total
# is the number "less code" claims are held to: tests, the benchmark
# (_bench) and the linter's fixtures do not count.
LOC_FIND = find . \( -name '*.go' -o -name '*.s' \) -not -name '*_test.go' -not -path './_bench/*' -not -path './internal/lint/testdata/*'

loc: ## non-test Go and assembly lines per package and the total
	@$(LOC_FIND) | xargs -n1 dirname | sort -u | while read d; do \
		printf '%7d %s\n' "$$($(LOC_FIND) -path "$$d/*" -not -path "$$d/*/*" | xargs cat | wc -l)" "$$d"; \
	done
	@printf '%7d total\n' "$$($(LOC_FIND) | xargs cat | wc -l)"

# The ratchet on that total: what one change saves the next may not
# spend. The ceiling is the total the last change landed at. Lower it to
# the new total when a change removes code; never raise it to make a
# change pass. A change whose measured gain needs more code raises it by
# exactly what lands and lists the lines per package in CHANGES.md,
# which holds the ceiling's history.
LOC_CEILING ?= 17651

loc-check: ## fail when the non-test Go + assembly line total exceeds LOC_CEILING
	@total="$$($(LOC_FIND) | xargs cat | wc -l)"; \
	echo "non-test Go + assembly lines: $$total (ceiling $(LOC_CEILING))"; \
	if [ "$$total" -gt "$(LOC_CEILING)" ]; then \
		echo "$$total lines exceed the $(LOC_CEILING)-line ceiling; see 'make loc' for the per-package breakdown"; exit 1; \
	fi

bench: ## full benchmark sweep
	$(GO) test -bench=. -benchmem -run='^$$' .

bench-smoke: ## compile-and-run guard for the hot kernel benchmarks
	$(GO) test -bench='BenchmarkSolverSpMV|BenchmarkTable1Inference' -benchtime=1x -run='^$$' .

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
# Xeon 2.1 GHz, 2 vCPU, go1.24, GOMAXPROCS=2). Every kernel runs on
# its caller's goroutine, so allocation counts do not depend on the
# host's core count.
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

# The paper gate: cmd/experiments -mode quick at seeds 1, 2 and 3, as
# three processes at once (about 2 min on 2 CPUs). Each run judges the
# paper's claims on its own numbers and exits 1 when a gated one fails
# (cmd/experiments/gate.go); the target prints every seed's verdict
# table, and each run's log and artifacts stay under PAPER_OUT.
PAPER_OUT ?= /tmp/irfusion-paper

paper-check: ## cmd/experiments -mode quick at seeds 1-3; fails when a gated paper claim fails
	$(GO) build -o $(PAPER_OUT)/experiments ./cmd/experiments
	@pids=""; for s in 1 2 3; do \
		mkdir -p $(PAPER_OUT)/seed$$s; \
		$(PAPER_OUT)/experiments -mode quick -seed $$s -out $(PAPER_OUT)/seed$$s > $(PAPER_OUT)/seed$$s/log 2>&1 & \
		pids="$$pids $$!"; \
	done; \
	fail=0; s=0; for p in $$pids; do \
		s=$$((s + 1)); \
		if wait $$p; then echo "seed $$s: gate passed"; else echo "seed $$s: gate FAILED"; fail=1; tail -n 5 $(PAPER_OUT)/seed$$s/log; fi; \
		cat $(PAPER_OUT)/seed$$s/gate.md 2>/dev/null; \
	done; \
	exit $$fail

docs-check: ## fail when a doc link or path.go#Symbol anchor no longer resolves, or a file.go:line anchor is used
	$(GO) run ./cmd/docscheck README.md DESIGN.md docs

FUZZTIME ?= 30s

fuzz-smoke: ## short fuzz runs of the SPICE parser (alone and against the parser it replaced), the canonicaliser against the one it replaced, the journal replay path, and the vector GEMM leaf against the Go leaf
	$(GO) test -fuzz=FuzzParseSPICE -fuzztime=$(FUZZTIME) -run='^$$' ./internal/spice
	$(GO) test -fuzz=FuzzParseDifferential -fuzztime=$(FUZZTIME) -run='^$$' ./internal/spice
	$(GO) test -fuzz=FuzzCanonicalDifferential -fuzztime=$(FUZZTIME) -run='^$$' ./internal/cache
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) -run='^$$' ./internal/journal
	$(GO) test -fuzz=FuzzGemmQuadLeaves -fuzztime=$(FUZZTIME) -run='^$$' ./internal/nn

# Total-statement-coverage floor. Measured at 80.3% when last raised
# (PR 22; 80.2% at PR 20); the margin absorbs run-to-run noise from
# timing-dependent serve paths. Raise it when new tests push coverage
# up — never lower it to make a PR pass.
COVERAGE_BASELINE ?= 78
COVER_PROFILE ?= /tmp/irfusion-cover.out

cover-check: ## fail when total statement coverage drops below COVERAGE_BASELINE
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@total="$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }')"; \
	echo "total coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	if ! awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }'; then \
		echo "coverage $$total% fell below the $(COVERAGE_BASELINE)% baseline"; exit 1; \
	fi
