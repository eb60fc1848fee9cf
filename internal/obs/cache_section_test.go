package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

// cacheManifest builds a valid manifest carrying a cache trail.
func cacheManifest(t *testing.T, events ...CacheEvent) *Manifest {
	t.Helper()
	r := NewRecorder()
	st := r.StartStage("solve")
	time.Sleep(time.Millisecond)
	st.End()
	r.Add("designs", 1)
	for _, e := range events {
		r.RecordCacheEvent(e)
	}
	return r.Manifest("analyze", nil)
}

func TestCacheSectionTallies(t *testing.T) {
	m := cacheManifest(t,
		CacheEvent{Stage: "numerical.solve", Outcome: CacheMiss},
		CacheEvent{Stage: "numerical.solve", Outcome: CacheStore, Key: "abc"},
		CacheEvent{Stage: "numerical.solve", Outcome: CacheHit, Key: "abc"},
		CacheEvent{Stage: "numerical.solve", Outcome: CacheWarm, Key: "abc", Delta: 0.01},
	)
	c := m.Cache
	if c == nil {
		t.Fatal("manifest with cache events has no cache section")
	}
	if c.Hits != 1 || c.Misses != 1 || c.WarmStarts != 1 || c.Stores != 1 {
		t.Fatalf("tallies = %+v", c)
	}
	if len(c.Events) != 4 || c.Events[3].Delta != 0.01 {
		t.Fatalf("events = %+v", c.Events)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("valid cache manifest rejected: %v", err)
	}
}

func TestCacheSectionAbsentWithoutEvents(t *testing.T) {
	if m := cacheManifest(t); m.Cache != nil {
		t.Fatalf("manifest with no cache events grew a section: %+v", m.Cache)
	}
}

func TestCacheSectionValidation(t *testing.T) {
	base := func() *Manifest {
		return cacheManifest(t,
			CacheEvent{Stage: "numerical.solve", Outcome: CacheStore},
			CacheEvent{Stage: "numerical.solve", Outcome: CacheHit},
		)
	}
	mut := map[string]func(*Manifest){
		"empty-events":    func(m *Manifest) { m.Cache.Events = nil },
		"missing-stage":   func(m *Manifest) { m.Cache.Events[0].Stage = "" },
		"unknown-outcome": func(m *Manifest) { m.Cache.Events[0].Outcome = "lukewarm" },
		"delta-range":     func(m *Manifest) { m.Cache.Events[0].Delta = 1.5 },
		"tally-drift":     func(m *Manifest) { m.Cache.Hits = 7 },
	}
	for name, f := range mut {
		m := base()
		f(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken cache section", name)
		}
	}
}

func TestRecordCacheEventSanitizes(t *testing.T) {
	var nilRec *Recorder
	nilRec.RecordCacheEvent(CacheEvent{Stage: "s", Outcome: CacheHit}) // must not panic
	m := cacheManifest(t, CacheEvent{Stage: "s", Outcome: CacheWarm, Delta: math.NaN()})
	if d := m.Cache.Events[0].Delta; math.IsNaN(d) {
		t.Fatalf("NaN delta not sanitized: %v", d)
	}
}

func TestSummaryIncludesCacheLine(t *testing.T) {
	m := cacheManifest(t,
		CacheEvent{Stage: "numerical.solve", Outcome: CacheStore},
		CacheEvent{Stage: "numerical.solve", Outcome: CacheWarm, Delta: 0.01},
	)
	s := m.Summary()
	if !strings.Contains(s, "warm start") {
		t.Fatalf("summary lacks the cache line:\n%s", s)
	}
}
