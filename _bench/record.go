package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// record is the file a suite run writes with -out: where it ran, the
// constants the load generator used, and every metric of every run.
type record struct {
	Host      hostInfo       `json:"host"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Quick     bool           `json:"quick"`
	Constants map[string]any `json:"constants"`
	Results   []*result      `json:"results"`
}

func newRecord(o runOpts) *record {
	rec := &record{Host: host(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Constants: map[string]any{
		"clients": clients, "headroom": headroom, "eco_fraction": ecoFraction, "eco_bases": ecoBases,
		"eco_settle": ecoSettle, "warm_requests": warmRequests, "sample_size": sampleSize,
		"trace_requests": traceRequests, "setup_repeats": setupRepeats, "train_seed": trainSeed,
	}}
	for _, w := range workloads {
		rec.Constants[w.name] = map[string]any{
			"die": w.dieSize(o.quick), "list_len": w.listLen(o.seconds, o.quick), "rps": w.rps, "open_loop": w.open, "slo_ms": w.sloMS,
		}
	}
	return rec
}

func (r *record) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printResult prints every metric of one run by name, with its unit.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed, inputs %.12s\n", r.Workload, r.Attempted, r.Failed, r.InputsHash)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "   %-30s %14.6g %s\n", d.Name, r.EndToEnd[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "   %-30s %14.6g %s (latency samples %.0f)\n", "error_rate", ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.PerLayer["loadgen.samples"])
	for _, d := range perLayer {
		if v, ok := r.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "   %-30s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// values collects one metric of one workload over the runs of a record.
func (r *record) values(workload, metric string) []float64 {
	var v []float64
	for _, res := range r.Results {
		if res.Workload != workload {
			continue
		}
		if x, ok := res.EndToEnd[metric]; ok {
			v = append(v, x)
		} else if x, ok := res.PerLayer[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

// printRanges prints, per workload and end-to-end metric, the minimum,
// median and maximum over the runs and their range as a share of the
// median; it reports whether every range stayed within its bound. Like
// the driver's own check, it lets setup_s range freely: a set-up lasts
// about a second, and its bound applies to the median of many runs.
func printRanges(r *record) bool {
	steady := true
	fmt.Println("== run-to-run ranges")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := r.values(w.name, d.Name)
			lo, hi, mid := slices.Min(v), slices.Max(v), median(v)
			rng := (hi - lo) / mid
			mark := ""
			if rng > d.Bound && d.Name != "setup_s" {
				mark, steady = "  BEYOND BOUND", false
			}
			fmt.Printf("   %-15s %-15s min %10.5g  median %10.5g  max %10.5g %-4s range %5.1f%% (bound %.0f%%)%s\n",
				w.name, d.Name, lo, mid, hi, d.Unit, 100*rng, 100*d.Bound, mark)
		}
	}
	return steady
}

// diffRecords prints, per workload, each metric's median in b over its
// median in a, with a's median as the base of the ratio.
func diffRecords(pathA, pathB string) int {
	a, err := readRecord(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "_bench:", err)
		return 1
	}
	b, err := readRecord(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "_bench:", err)
		return 1
	}
	for _, w := range workloads {
		fmt.Printf("== %s: %s over %s\n", w.name, pathB, pathA)
		for _, d := range slices.Concat(endToEnd, perLayer) {
			va, vb := a.values(w.name, d.Name), b.values(w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio := "    n/a" // both 0: a count the workload cannot produce
			if median(va) != 0 {
				ratio = fmt.Sprintf("%7.3f", median(vb)/median(va))
			}
			fmt.Printf("   %-30s %12.5g / %12.5g %-6s = %s (%s is better)\n",
				d.Name, median(vb), median(va), d.Unit, ratio, d.Better)
		}
	}
	return 0
}
