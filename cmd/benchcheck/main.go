// Command benchcheck is the bench-regression CI gate: it runs the
// pinned benchmark set declared in a committed baseline file
// (bench.baseline), parses the `go test -bench` output, and fails when
// a benchmark regresses past the baseline's tolerance band.
//
// The baseline pins each run with -benchtime=Nx (a fixed iteration
// count, not a duration), so per-op allocation counts are exactly
// reproducible across machines and are compared tightly. Wall-clock
// ns/op varies with hardware, so it is gated by a generous
// multiplicative factor — the gate catches "the SpMV kernel got 2×
// slower", not single-digit noise. Cross-benchmark ratios (e.g. the
// ECO-loop cold/hit speedup) are computed from measurements taken in
// the same process on the same machine, making them machine-
// independent; they are the strictest gates.
//
//	benchcheck -baseline bench.baseline          # CI gate
//	benchcheck -baseline bench.baseline -update  # rebaseline after a reviewed change
//
// Exit status: 0 when every gate passes, 1 on any regression, 2 on
// usage or harness errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed bench.baseline document.
type Baseline struct {
	// Runs declares the pinned benchmark invocations. Each entry is one
	// `go test -bench <Bench> -benchtime <Benchtime>` execution.
	Runs []Run `json:"runs"`
	// Tolerance is the regression band applied to every benchmark.
	Tolerance Tolerance `json:"tolerance"`
	// Ratios are machine-independent cross-benchmark gates computed
	// from the measurements of this invocation.
	Ratios []Ratio `json:"ratios"`
	// Benchmarks maps benchmark name (sub-benchmarks as "Parent/sub",
	// CPU suffix stripped) to its recorded baseline measurement.
	Benchmarks map[string]Measure `json:"benchmarks"`
}

// Run pins one benchmark invocation.
type Run struct {
	Bench     string `json:"bench"`         // -bench regex
	Benchtime string `json:"benchtime"`     // -benchtime value; use "Nx" so allocs are exact
	Pkg       string `json:"pkg,omitempty"` // package path, default "."
}

// Tolerance is the regression band. NsFactor multiplies the baseline
// ns/op to get the failure threshold; allocations fail when measured >
// baseline*AllocFactor + AllocSlack (the additive slack absorbs
// one-time setup amortized over small -benchtime counts). Rows that
// record bytes_per_op gate B/op by AllocFactor too.
type Tolerance struct {
	NsFactor    float64 `json:"ns_factor"`
	AllocFactor float64 `json:"alloc_factor"`
	AllocSlack  int64   `json:"alloc_slack"`
}

// Ratio gates Numerator.ns/op ÷ Denominator.ns/op >= Min using the
// measurements of this run.
type Ratio struct {
	Name        string  `json:"name"`
	Numerator   string  `json:"numerator"`
	Denominator string  `json:"denominator"`
	Min         float64 `json:"min"`
}

// Measure is one benchmark's recorded numbers.
type Measure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
}

func main() {
	log.SetFlags(0)
	baselinePath := flag.String("baseline", "bench.baseline", "committed baseline JSON file")
	update := flag.Bool("update", false, "rewrite the baseline's measurements from this run instead of gating")
	nsFactor := flag.Float64("ns-factor", 0, "override the baseline's ns/op tolerance factor (0 = use the file's)")
	flag.Parse()

	bl, err := readBaseline(*baselinePath)
	if err != nil {
		log.Fatalf("benchcheck: %v", err)
	}
	if *nsFactor > 0 {
		bl.Tolerance.NsFactor = *nsFactor
	}

	measured := map[string]Measure{}
	for _, r := range bl.Runs {
		out, err := runBench(r)
		if err != nil {
			log.Fatalf("benchcheck: bench %q: %v", r.Bench, err)
		}
		// A run whose rows all fail to parse would drop out of the gate
		// (and out of -update) without a word; fail it instead.
		rows := parseBench(out)
		if len(rows) == 0 {
			log.Fatalf("benchcheck: bench %q produced no result rows — check its regex and the row format", r.Bench)
		}
		for name, m := range rows {
			measured[name] = m
		}
	}

	if *update {
		bl.Benchmarks = measured
		if err := writeBaseline(*baselinePath, bl); err != nil {
			log.Fatalf("benchcheck: %v", err)
		}
		log.Printf("benchcheck: rebaselined %d benchmark(s) into %s", len(measured), *baselinePath)
		return
	}

	failures := gate(bl, measured)
	if len(failures) > 0 {
		for _, f := range failures {
			log.Printf("FAIL %s", f)
		}
		log.Fatalf("benchcheck: %d regression(s) against %s (rebaseline with -update after review)", len(failures), *baselinePath)
	}
	log.Printf("benchcheck: %d benchmark(s), %d ratio gate(s): ok", len(measured), len(bl.Ratios))
}

func readBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bl Baseline
	if err := json.Unmarshal(raw, &bl); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(bl.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs declared", path)
	}
	if bl.Tolerance.NsFactor <= 1 {
		bl.Tolerance.NsFactor = 2
	}
	if bl.Tolerance.AllocFactor <= 1 {
		bl.Tolerance.AllocFactor = 1.25
	}
	return &bl, nil
}

func writeBaseline(path string, bl *Baseline) error {
	buf, err := json.MarshalIndent(bl, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runBench executes one pinned `go test -bench` invocation and returns
// its combined output (which is also echoed for the CI log).
func runBench(r Run) (string, error) {
	pkg := r.Pkg
	if pkg == "" {
		pkg = "."
	}
	args := []string{"test", "-run", "^$", "-bench", r.Bench, "-benchtime", r.Benchtime, "-benchmem", pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	fmt.Print(string(out))
	if err != nil {
		return "", fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}

// benchLine matches one `go test -bench -benchmem` result row, e.g.
//
//	BenchmarkCacheECOLoop/hit-8   20   1414317 ns/op   988081 B/op   7737 allocs/op
//
// Custom b.ReportMetric columns between ns/op and B/op may have any
// unit without spaces: op-complexity, par-kernels/op, apply-µs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ \S+)*?\s+(\d+) B/op\s+(\d+) allocs/op`)

func parseBench(out string) map[string]Measure {
	res := map[string]Measure{}
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err1 := strconv.ParseFloat(m[2], 64)
		bytes, err2 := strconv.ParseInt(m[3], 10, 64)
		allocs, err3 := strconv.ParseInt(m[4], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		res[m[1]] = Measure{NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes}
	}
	return res
}

// gate applies the tolerance band and ratio gates, printing the delta
// table, and returns the failure messages.
func gate(bl *Baseline, measured map[string]Measure) []string {
	var failures []string
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("%-44s %14s %14s %8s %16s\n", "benchmark", "base ns/op", "now ns/op", "Δ", "allocs base→now")
	for _, name := range names {
		now := measured[name]
		base, ok := bl.Benchmarks[name]
		if !ok {
			fmt.Printf("%-44s %14s %14.0f %8s %16s\n", name, "(new)", now.NsPerOp, "", fmt.Sprintf("—→%d", now.AllocsPerOp))
			failures = append(failures, fmt.Sprintf("%s: not in baseline — record it with -update", name))
			continue
		}
		delta := now.NsPerOp/base.NsPerOp - 1
		fmt.Printf("%-44s %14.0f %14.0f %+7.1f%% %16s\n",
			name, base.NsPerOp, now.NsPerOp, 100*delta, fmt.Sprintf("%d→%d", base.AllocsPerOp, now.AllocsPerOp))
		if now.NsPerOp > base.NsPerOp*bl.Tolerance.NsFactor {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f × %.2f",
				name, now.NsPerOp, base.NsPerOp, bl.Tolerance.NsFactor))
		}
		allocCap := int64(float64(base.AllocsPerOp)*bl.Tolerance.AllocFactor) + bl.Tolerance.AllocSlack
		if now.AllocsPerOp > allocCap {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds baseline %d (cap %d)",
				name, now.AllocsPerOp, base.AllocsPerOp, allocCap))
		}
		if bytesCap := int64(float64(base.BytesPerOp) * bl.Tolerance.AllocFactor); base.BytesPerOp > 0 && now.BytesPerOp > bytesCap {
			failures = append(failures, fmt.Sprintf("%s: %d B/op exceeds baseline %d (cap %d)",
				name, now.BytesPerOp, base.BytesPerOp, bytesCap))
		}
	}
	// Baseline entries the pinned runs no longer produce are stale —
	// failing loudly beats silently gating nothing.
	for name := range bl.Benchmarks {
		if _, ok := measured[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not produced by any pinned run — prune it with -update", name))
		}
	}
	for _, r := range bl.Ratios {
		num, okN := measured[r.Numerator]
		den, okD := measured[r.Denominator]
		if !okN || !okD {
			failures = append(failures, fmt.Sprintf("ratio %q: missing %s or %s in this run", r.Name, r.Numerator, r.Denominator))
			continue
		}
		got := num.NsPerOp / den.NsPerOp
		fmt.Printf("ratio %-38s %14.2f  (min %.2f)\n", r.Name, got, r.Min)
		if got < r.Min {
			failures = append(failures, fmt.Sprintf("ratio %q: %s/%s = %.2f below minimum %.2f",
				r.Name, r.Numerator, r.Denominator, got, r.Min))
		}
	}
	return failures
}
