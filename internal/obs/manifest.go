package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// schemaVersion identifies the manifest layout. Bump only when a
// required key changes meaning or disappears; adding optional keys is
// backward compatible and does not bump the version.
const schemaVersion = "irfusion/run-manifest/v1"

// Manifest is the structured record of one pipeline run — the JSON
// document behind the --manifest flag of cmd/irfusion and
// cmd/experiments. Required keys (enforced by Validate and the CI
// schema smoke test): schema, kind, start_time, wall_seconds, host,
// stages, counters.
type Manifest struct {
	Schema      string             `json:"schema"`
	Kind        string             `json:"kind"`
	Start       time.Time          `json:"start_time"`
	WallSeconds float64            `json:"wall_seconds"`
	Host        Host               `json:"host"`
	Config      any                `json:"config,omitempty"`
	Stages      []StageRecord      `json:"stages"`
	Counters    map[string]int64   `json:"counters"`
	Gauges      map[string]float64 `json:"gauges,omitempty"`
	Solves      []SolveRecord      `json:"solves,omitempty"`
	Epochs      []EpochRecord      `json:"epochs,omitempty"`
	// Degradations is the resilience trail: one record per laddered
	// operation saying which backend rung produced the answer, with
	// every rung that failed before it. Optional key of
	// irfusion/run-manifest/v1 (absent = no laddered operation ran).
	Degradations []Degradation `json:"degradation,omitempty"`
	// Cache is the artifact-cache trail: per-stage hit/miss/warm-start
	// events with aggregate tallies. Optional key of
	// irfusion/run-manifest/v1 (absent = no cache interaction), so its
	// addition needs no schema-version bump.
	Cache *CacheSection `json:"cache,omitempty"`
	// Shard names the serving shard that produced this run, so
	// manifests aggregated across a cluster stay attributable. Optional
	// key of irfusion/run-manifest/v1 (absent = standalone process), so
	// its addition needs no schema-version bump.
	Shard string `json:"shard,omitempty"`
}

// CacheSection aggregates the run's artifact-cache interactions for
// the manifest. Tallies are derived from Events and must agree with
// them (Validate enforces it).
type CacheSection struct {
	Hits       int          `json:"hits"`
	Misses     int          `json:"misses"`
	WarmStarts int          `json:"warm_starts"`
	Stores     int          `json:"stores"`
	Events     []CacheEvent `json:"events"`
}

// Host captures the execution environment of the run.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Manifest freezes the recorder into a manifest of the given kind
// ("analyze", "solve", "train", "experiments", ...) with an optional
// configuration payload. Its counters are what the recorder counted,
// nothing of the process's global counters. The recorder remains
// usable afterwards.
func (r *Recorder) Manifest(kind string, config any) *Manifest {
	m := &Manifest{
		Schema: schemaVersion,
		Kind:   kind,
		Config: config,
		Host: Host{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
	}
	if r == nil {
		m.Start = time.Now()
		return m
	}
	m.Start = r.start
	m.WallSeconds = time.Since(r.start).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.counters {
		m.Counters[name] = v
	}
	for name, v := range r.gauges {
		m.Gauges[name] = sanitize(v)
	}
	for _, name := range r.stageOrder {
		m.Stages = append(m.Stages, *r.stages[name])
	}
	m.Solves = append([]SolveRecord(nil), r.solves...)
	m.Epochs = append([]EpochRecord(nil), r.epochs...)
	m.Degradations = append([]Degradation(nil), r.degrads...)
	if len(r.cacheEvts) > 0 {
		cs := &CacheSection{Events: append([]CacheEvent(nil), r.cacheEvts...)}
		for _, e := range cs.Events {
			switch e.Outcome {
			case CacheHit:
				cs.Hits++
			case CacheMiss:
				cs.Misses++
			case CacheWarm:
				cs.WarmStarts++
			case CacheStore:
				cs.Stores++
			}
		}
		m.Cache = cs
	}
	return m
}

// Validate checks the invariants every manifest must satisfy —
// the contract of schemaVersion. Every cmd/irfusion TestRehearseAll
// row runs it before its own expectations.
func (m *Manifest) Validate() error {
	switch {
	case m.Schema != schemaVersion:
		return fmt.Errorf("obs: manifest schema %q, want %q", m.Schema, schemaVersion)
	case m.Kind == "":
		return errors.New("obs: manifest kind missing")
	case m.Start.IsZero():
		return errors.New("obs: manifest start_time missing")
	case m.WallSeconds <= 0:
		return errors.New("obs: manifest wall_seconds not positive")
	case len(m.Stages) == 0:
		return errors.New("obs: manifest has no stages")
	case m.Counters == nil:
		return errors.New("obs: manifest has no counters")
	}
	timed := false
	for _, s := range m.Stages {
		if s.Name == "" || s.Count <= 0 || s.Seconds < 0 {
			return fmt.Errorf("obs: malformed stage record %+v", s)
		}
		if s.Seconds > 0 {
			timed = true
		}
	}
	if !timed {
		return errors.New("obs: every stage reports zero wall time")
	}
	for _, s := range m.Solves {
		if s.Label == "" || s.Iterations < 0 {
			return fmt.Errorf("obs: malformed solve record %+v", s)
		}
	}
	for _, d := range m.Degradations {
		if d.Component == "" {
			return fmt.Errorf("obs: degradation record missing component: %+v", d)
		}
		if d.Rung == "" && !d.Exhausted {
			return fmt.Errorf("obs: degradation record for %s has no rung and is not exhausted", d.Component)
		}
		if d.RungIndex < 0 {
			return fmt.Errorf("obs: degradation record for %s has negative rung_index", d.Component)
		}
		if len(d.Attempts) == 0 {
			return fmt.Errorf("obs: degradation record for %s has no attempts", d.Component)
		}
		served := d.Rung == ""
		for _, a := range d.Attempts {
			if a.Rung == "" {
				return fmt.Errorf("obs: degradation attempt missing rung: %+v", a)
			}
			if a.Rung == d.Rung {
				served = true
			}
		}
		if !served {
			return fmt.Errorf("obs: degradation record for %s: serving rung %q never appears in its attempt trail", d.Component, d.Rung)
		}
	}
	if c := m.Cache; c != nil {
		if len(c.Events) == 0 {
			return fmt.Errorf("obs: cache section present but has no events")
		}
		var hits, misses, warms, stores int
		for _, e := range c.Events {
			if e.Stage == "" {
				return fmt.Errorf("obs: cache event missing stage: %+v", e)
			}
			if e.Delta < 0 || e.Delta > 1 {
				return fmt.Errorf("obs: cache event for %s has delta %g outside [0,1]", e.Stage, e.Delta)
			}
			switch e.Outcome {
			case CacheHit:
				hits++
			case CacheMiss:
				misses++
			case CacheWarm:
				warms++
			case cacheStale: // an older release's outcome: valid, and counted in no tally
			case CacheStore:
				stores++
			default:
				return fmt.Errorf("obs: cache event for %s has unknown outcome %q", e.Stage, e.Outcome)
			}
		}
		if hits != c.Hits || misses != c.Misses || warms != c.WarmStarts || stores != c.Stores {
			return fmt.Errorf("obs: cache tallies %d/%d/%d/%d disagree with events %d/%d/%d/%d",
				c.Hits, c.Misses, c.WarmStarts, c.Stores, hits, misses, warms, stores)
		}
	}
	return nil
}

// Encode writes the manifest as indented JSON.
func (m *Manifest) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Summary renders the human-readable end-of-run table printed by the
// CLI front ends: per-stage wall times, solver convergence, the
// resilience and cache trails, training trajectory, and counters.
func (m *Manifest) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "── run manifest: %s (%.2fs wall, go %s, %d CPU) ──\n",
		m.Kind, m.WallSeconds, m.Host.GoVersion, m.Host.NumCPU)
	if len(m.Stages) > 0 {
		fmt.Fprintf(&b, "%-28s %7s %12s\n", "stage", "count", "wall")
		for _, s := range m.Stages {
			fmt.Fprintf(&b, "%-28s %7d %12s\n", s.Name, s.Count, fmtSeconds(s.Seconds))
		}
	}
	if len(m.Solves) > 0 {
		fmt.Fprintf(&b, "%-28s %7s %12s %12s %s\n", "solve", "iters", "wall", "residual", "converged")
		for _, s := range m.Solves {
			fmt.Fprintf(&b, "%-28s %7d %12s %12.3g %v\n",
				s.Label, s.Iterations, fmtSeconds(s.Seconds), s.Residual, s.Converged)
		}
	}
	for _, d := range m.Degradations {
		state := "clean"
		switch {
		case d.Exhausted:
			state = "EXHAUSTED"
		case d.Degraded():
			state = "degraded"
		}
		fmt.Fprintf(&b, "resilience: %s served by rung %d (%s), %d attempt(s), %s\n",
			d.Component, d.RungIndex, orDash(d.Rung), len(d.Attempts), state)
	}
	if n := len(m.Epochs); n > 0 {
		first, last := m.Epochs[0], m.Epochs[n-1]
		fmt.Fprintf(&b, "training: %d epochs, loss %.4g → %.4g\n", n, first.Loss, last.Loss)
	}
	if c := m.Cache; c != nil {
		fmt.Fprintf(&b, "cache: %d hit(s), %d miss(es), %d warm start(s), %d store(s)\n",
			c.Hits, c.Misses, c.WarmStarts, c.Stores)
	}
	var rest []string
	for _, name := range sortedKeys(m.Counters) {
		rest = append(rest, fmt.Sprintf("%s=%d", name, m.Counters[name]))
	}
	if len(rest) > 0 {
		fmt.Fprintf(&b, "counters: %s\n", strings.Join(rest, " "))
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func fmtSeconds(s float64) string {
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// WriteFile (re)creates path and writes the manifest there as indented
// JSON.
func (m *Manifest) WriteFile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// DecodeManifest decodes a manifest from its JSON encoding (the
// inverse of Encode). Keys it does not know — the resume section and
// the cache section's stale tally an older release wrote — are ignored.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: decode manifest: %w", err)
	}
	return &m, nil
}
