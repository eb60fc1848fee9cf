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

# The ratchet on that total: what one PR saves the next may not spend.
# Lower the ceiling when a PR removes code (its new total rounded up to
# the next 50); never raise it to make a PR pass. Raised once, by PR 21,
# from 22550 by the 77 lines internal/nn/gemm.go grew (total 22540 ->
# 22617): the blocked GEMM kernels (gemmQuad, gemmRow, four-chain
# gemmTBRange) that took fused_small p10 from 33.4 to 25.8 ms without
# changing a bit. Lowered by PR 22 to 22000 (total 22617 -> 21978): the
# SELL-C-sigma format, sparse.Operator and the format knob at every
# layer went. Raised by PR 23 to 22100 by the 99 lines internal/serve
# and internal/cluster grew (total 21978 -> 22077): the SHA-256 body
# memo at both tiers that took eco_gateway p10 from 24.3 to 1.2 ms.
# Raised by PR 25 to 22200 (total 22091 -> 22149): the deck front end in
# one walk. internal/spice 258 -> 293 (the ASCII field splitter, the
# aliasing contract in the package comment), internal/cache 1016 -> 1039
# (the arena canonicaliser behind all four entry points),
# internal/circuit 748 -> 725 (one walk where ValidateNetlist and
# FromNetlist were two, one flat BFS where there were two), serve 1713
# -> 1725, pgen +5, core +3, dataset +3 (the design carries its network).
# Raised by PR 26 to 22330, the most its issue allowed (total 22149 ->
# 22330): fused inference on a tape that owns the pass's memory.
# internal/nn 1976 -> 2059 (the inference tape and its lend/panel/Reset
# +55, ForwardReLU +33, the AvgPool3x3Same interior path +20; the panel
# loop costs what im2col, im2colRange and the column pool gave back;
# paid down by sharing Conv2D's and conv1x1's bias loops, dropping
# (*Tape).Len and moving FromSlice to the tests that use it),
# internal/features 378 -> 416 (the typed heap's sifts),
# internal/core 694 -> 736 (the idle-tape list that replaced the
# sync.Pool the driver found unsteady, ErrNonFinitePrediction and its
# scan), internal/serve 1725 -> 1734 (the same scan),
# internal/models 821 -> 823 (the ownership rule on Model.Forward),
# cmd/benchcheck 254 -> 261 (bytes_per_op).
# Raised by PR 28 to 22571, exactly what landed (total 22330 -> 22571,
# +241 of the +260 its issue allowed), and from this PR on the total
# counts assembly: the AVX2 leaf under gemmQuad that took fused_small
# p10 from 17.4 to 10.6 ms without changing a bit. internal/nn 2059 ->
# 2285: gemm_amd64.s 0 -> 133 (the kernel and its two macros 91, the
# CPUID and XGETBV helpers 18, the contract 24), gemm_amd64.go 0 -> 35
# (the declarations and the CPUID/XCR0 decision), gemm_other.go 0 -> 10
# (every other GOARCH), gemm.go 246 -> 294 (the dispatch and its bounds
# check 20, Kernel 11, the per-architecture bit contract and the leaf
# comments 17); internal/serve 1734 -> 1739 and cmd/irfusion 1185 ->
# 1195 (gemm_kernel on /healthz, in fused job manifests and in the CLI
# manifests' config).
# Lowered by PR 29 to 22200 (total 22571 -> 22177): one serial
# numerical core. The worker-pool forks of sparse, solver and amg, the
# IRFUSION_PAR_THRESHOLD knob and the pool API only they used went:
# internal/parallel 386 -> 252, internal/sparse 820 -> 640,
# internal/solver 637 -> 600, internal/amg 611 -> 589, internal/serve
# 1739 -> 1731, cmd/irfusion 1195 -> 1184, cmd/experiments 666 -> 664.
# Lowered to 21550 (total 22177 -> 21534) when irfusionlint was cut to
# the size of what it catches. internal/lint 3076 -> 2593 (atomicmix, the
# counter half of sitedrift, ctxleak's two lostcancel shapes, the
# baseline and SARIF writers went), cmd/irfusionlint 213 -> 44 (-C is
# its only flag), cmd/benchcheck 261 -> 267 (custom metric units, a run
# with no rows fails), cmd/irfusion 1184 -> 1186 and internal/obs
# 956 -> 957 (the three go-ok waivers that replaced lint.baseline).
# Lowered to 21150 (total 21534 -> 21143) when internal/parallel went
# and every kernel became one loop on its caller: internal/parallel
# 252 -> 0, internal/nn 2285 -> 2217 (parallelFor, serialFor, the GEMM
# and col2im dispatch branches, the pooling closures), internal/lint
# 2593 -> 2561 (hotpath's dispatch-closure exemption), internal/obs
# 957 -> 938 (the pool gauge and summary line), internal/solver 600 ->
# 588 (MaxAbsDiff moved to its tests), internal/serve 1731 -> 1725,
# cmd/irfusion 1186 -> 1184, cmd/experiments 664 -> 662, and
# internal/sparse 640 -> 642 (the serial-kernel rationale the pool's
# package comment carried).
# Lowered to 21050 (total 21143 -> 21044) when the context became the
# only way to find a recorder or a cache: internal/obs 938 -> 880
# (Active/SetActive/ActiveOr, the manifest's global-counter merge,
# AddSeconds), internal/cache 1039 -> 1005 (its global slot),
# internal/core 736 -> 723 and internal/dataset 582 -> 576 (the
# ctx-less wrappers), internal/features 416 -> 408 (the feature.*
# gauges), internal/amg 589 -> 582 (amg.cycle); the front ends grew by
# the ctx they now pass: the root facade 132 -> 138, cmd/experiments
# 662 -> 670, cmd/irfusion 1184 -> 1188, the examples +2 each, and
# internal/lint 2561 -> 2564 (hooksafe's rules 1 and 2 name faults).
# Lowered to 20650 (total 21044 -> 20621) when the offline path became
# the size of what its callers run: the label build went cold and
# training kept only the knobs a program sets. internal/core 723 -> 623
# (the validation hold-out, best-epoch restore, LR schedule and loss
# switch), internal/dataset 576 -> 481 (the sample memo), internal/nn
# 2217 -> 2105 (the LR schedules, AddWeighted, Tanh), internal/obs 880 ->
# 836 (the stage allocation deltas, EpochRecord.ValLoss), internal/models
# 823 -> 797 (LossModel, IRPnet's Kirchhoff loss), internal/plan 853 ->
# 843 (the label ladder's cache rungs), cmd/report 69 -> 42 and
# internal/report 97 -> 88 (-fill).
# Raised to 20687, exactly what landed (total 20621 -> 20658,
# +37 of the +40 allowed for it): the canonical fingerprint at
# two-thirds its cost. internal/cache 1005 -> 1042 (fingerprint.go
# 145 -> 182): the word-keyed MSD line sort, its comparator and word
# reader, and the 256-slot value memo, net of Canonical,
# CanonicalTopology and Fingerprint (only tests called them) and their
# comments, about 40 lines; internal/journal 626 -> 626 (the exact
# segment-name check).
# Lowered to 20400 (total 20658 -> 20364) when the degradation ladder
# went to one attempt per rung: internal/plan 843 -> 521 (retries,
# backoff, jitter, ResilienceOptions and the circuit breaker with its
# named set), internal/serve 1725 -> 1649 (the shard's breakers,
# Resilience and breaker fields, the resume-from header, and
# executeFused's copy of core.Analyzer.AnalyzeCtx), internal/obs 836 ->
# 826 (attempt number, backoff, skip), internal/core 623 -> 618 (the two
# Resilience fields, net of the cancel check AnalyzeCtx took over);
# internal/cluster 857 -> 976, where the breaker now lives, one per
# shard (breaker.go, 118 lines).
# Lowered to 20200 (total 20364 -> 20185) when the rung census found no
# admitted deck that reaches a fallback rung: internal/solver 588 -> 449
# (the random-walk solver), internal/plan 521 -> 464 (the random-walk
# and structure-only rungs and SSOR behind AMG-PCG), internal/core 618
# -> 613 and internal/dataset 481 -> 479 (their comments); net of
# internal/circuit 725 -> 741 (the non-finite-value finding),
# cmd/irfusion 1188 -> 1195 (the exhausted rehearsal row) and
# internal/cache 1042 -> 1043.
# Held at 20200 (total 20185 -> 20179) when the exported surface became
# a lint rule: internal/lint 2564 -> 2716 (exportuse, 150 lines), paid
# for by internal/report and cmd/report 130 -> 0, cmd/experiments 670
# -> 695 (the markdown tables it now writes), the GEMM row range and
# gemmRows (internal/nn 2105 -> 2084), and the names no caller needed.
# Lowered to 19300 (total 20179 -> 19263) when fault injection became a
# typed test fixture: cmd/irfusion 1195 -> 734 (the rehearse harness
# and the -faults flag), internal/lint 2716 -> 2503 (sitedrift and
# hooksafe's global-read check), internal/faults 387 -> 206 (the spec
# grammar, its seeded probability, the site registry and the env var),
# internal/features 408 -> 387, internal/dataset 479 -> 470,
# internal/cache 1043 -> 1022, internal/cluster 970 -> 963,
# internal/solver 449 -> 447 and internal/serve 1646 -> 1645 (the
# sites and actions no test armed, fault_spec on /healthz).
# Lowered to 19150 (total 19181 -> 19121) when the shard's admission
# memo and response memo became one entry per body: internal/serve
# 1645 -> 1610 (the admit| and fingerprint-keyed resp| entries, the
# lazy re-admission branch, the serve.admit counters and Config.MaxJobs),
# internal/journal 626 -> 603 (the interval sync policy and SyncEvery),
# internal/cluster 978 -> 976 (Config.Client).
# Lowered to 19100 (total 19121 -> 19095) when every server flag and
# config field with no caller became a constant: cmd/irfusion 698 ->
# 618 (17 flags of serve, gateway and gen, and one listen/drain routine
# where serve and gateway had one each), internal/cluster 976 -> 958
# (VNodes, MaxHandoffs), internal/pgen 746 -> 731 (ReadConfig,
# WriteConfig), internal/amg 582 -> 568 (Strength, MaxCoarse, MaxLevels,
# KTolerance), internal/serve 1610 -> 1601 (DefaultTimeout, CacheBytes,
# CacheTTL); net of cmd/experiments 695 -> 805, the paper gate
# (gate.go and the -real check).
# Lowered to 18500 (total 19095 -> 18453) when mid-solve checkpoints
# went and a requeued or recovered job re-runs its solve: internal/cache
# 983 -> 739 (the checkpoint store, lookup, decoder and writer),
# internal/serve 1601 -> 1474 (blob recovery and drop, the notify hook,
# CheckpointEvery, DisableCache and the uncached fork), internal/plan
# 442 -> 369 (the resume rung), internal/obs 826 -> 764 (the resume
# section), internal/solver 447 -> 387 (the snapshot sink), internal/journal
# 603 -> 549 (LoadBlob, DropBlob), internal/core 613 -> 600,
# internal/faults 206 -> 199 (two sites, one action), cmd/irfusion
# 618 -> 616 (-checkpoint-every).
# Lowered to 18400 (total 18453 -> 18387) when a job became one attempt
# and two journal records: internal/serve 1474 -> 1435 (the started and
# requeued appends, the requeue-once retry, requeueForRetry, the
# requeues field and serve.requeues), internal/journal 549 -> 533
# (TypeStarted, TypeRequeued, JobState.LastType and Terminal, Fold.Len,
# Journal.Dir), internal/obs 764 -> 758 (the stale tally),
# internal/solver 387 -> 382 (the solver.pcg panic only the requeue
# test armed).
# Lowered to 18285, the new total (18399 -> 18285), when each shard's
# two health states in the gateway became one record: internal/cluster
# 958 -> 839 (breaker.go's half-open machine, its cooldown and clock
# hook, the probe view's own mutex, the disable-the-probe-loop branch
# and Config's MaxBodyBytes, ProbeTimeout, BreakerThreshold and
# BreakerCooldown); net of internal/serve 1435 -> 1440 (the body limit
# the gateway shares, serve.MaxBodyBytes, and the exported
# ErrKindExhausted the gateway reads to relay an exhausted ladder's
# 503).
LOC_CEILING ?= 18285

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

docs-check: ## fail when any doc link or file:line anchor no longer resolves
	$(GO) run ./cmd/docscheck README.md docs

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
