// Command _bench is the repository's benchmark: it builds seeded
// inputs, drives the real analysis servers over loopback HTTP through
// four workloads, checks the answers, and reports end-to-end and
// per-layer metrics. See README.md in this directory.
//
//	go run ./_bench                                   every workload, human-readable
//	go run ./_bench -out r.json -repeat 3             record, with run-to-run ranges
//	go run ./_bench -diff a.json b.json               compare two records
//	go run ./_bench --workload W --seed N --seconds S --trace 0|1
//	                                                  one run; the last line is the JSON result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runSeconds is the length of one window, the run_seconds of
// BENCHMARK.json.
const runSeconds = 22

// traceRequests is the number of requests the traced pass replays (odd,
// so that a median is one of the values), quickTraceRequests the number
// under -quick.
const (
	traceRequests      = 9
	quickTraceRequests = 3
)

// guardedEnv are the variables that change how the program under test
// runs; the benchmark refuses to measure with any of them set.
var guardedEnv = []string{
	"IRFUSION_WORKERS", "IRFUSION_PAR_THRESHOLD", "IRFUSION_FAULTS", "IRFUSION_CACHE_BYTES", "IRFUSION_CACHE_TTL",
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("_bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print the result as the last line, one JSON object")
	seed := fs.Int64("seed", 1, "seed of the inputs; 2 is the hold-out seed")
	seconds := fs.Float64("seconds", runSeconds, "length of one window")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "tiny dies and short lists; every answer check still runs")
	out := fs.String("out", "", "write the record of this run to this file")
	repeat := fs.Int("repeat", 1, "run the suite this many times and report each end-to-end metric's range")
	diff := fs.Bool("diff", false, "compare two records: -diff a.json b.json")
	spans := fs.String("spans", "", "with -workload and -trace 1: write the spans of the traced pass to this file")
	manifest := fs.Bool("benchmark-json", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		os.Stdout.Write(benchmarkJSON())
		return 0
	case *diff:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -diff a.json b.json")
			return 2
		}
		return diffRecords(fs.Arg(0), fs.Arg(1))
	}
	for _, v := range guardedEnv {
		if _, set := os.LookupEnv(v); set {
			fmt.Fprintf(os.Stderr, "_bench: %s is set; it changes what is measured, unset it\n", v)
			return 2
		}
	}
	opts := runOpts{seed: *seed, seconds: *seconds, quick: *quick, spans: *spans}
	if *quick {
		opts.seconds = 2
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "_bench: unknown workload %q\n", *name)
			return 2
		}
		return runOne(w, opts, *trace == 1)
	}
	if *spans != "" {
		fmt.Fprintln(os.Stderr, "_bench: -spans needs -workload and -trace 1")
		return 2
	}
	return runSuite(opts, *repeat, *out)
}

// runOne is the mode the benchmark driver uses: one workload, one run,
// the result as the last line of standard output.
func runOne(w workload, opts runOpts, traced bool) int {
	opts.setups, opts.traced = setupRepeats, traced
	defs, pick := endToEnd, func(r *result) map[string]float64 { return r.EndToEnd }
	if traced {
		// setup_s is not reported by a traced run; set up once.
		opts.setups = 1
		defs, pick = perLayer, func(r *result) map[string]float64 { return r.PerLayer }
	}
	res, err := runWorkload(w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "_bench:", err)
		return 1
	}
	printResult(os.Stderr, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{pick(res)[d.Name], d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "_bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runSuite runs every workload, untraced window then traced pass,
// `repeat` times, prints every metric and writes the record.
func runSuite(opts runOpts, repeat int, out string) int {
	opts.setups, opts.traced = setupRepeats, true
	rec := newRecord(opts)
	failed := 0
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			res, err := runWorkload(w, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "_bench:", err)
				return 1
			}
			res.Run = r
			printResult(os.Stdout, res)
			failed += res.Failed
			rec.Results = append(rec.Results, res)
		}
	}
	if out != "" {
		if err := rec.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "_bench:", err)
			return 1
		}
	}
	steady := true
	if repeat > 1 {
		steady = printRanges(rec)
	}
	switch {
	case failed > 0:
		fmt.Printf("FAIL: %d requests failed or were answered wrongly\n", failed)
		return 1
	case !steady:
		fmt.Println("FAIL: an end-to-end metric ranged beyond its bound between runs")
		return 1
	}
	fmt.Println("ok: every answer check passed")
	return 0
}

// benchmarkJSON renders BENCHMARK.json from the tables of this
// package, so the file and the program cannot disagree (a test
// compares the committed file with this output).
func benchmarkJSON() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // no bound: it is 0 and omitted
	}{
		Command: []string{"go", "run", "./_bench"}, Paths: []string{"_bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDef{w.name, w.why})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the tables are literals
	}
	return append(data, '\n')
}

// hostInfo says where a record was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	commit := "unknown"
	if outb, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(outb))
	}
	return hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit}
}
