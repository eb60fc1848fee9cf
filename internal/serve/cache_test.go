package serve

import (
	"encoding/json"
	"testing"

	"irfusion/internal/obs"
)

// cacheOutcomes tallies the manifest's cache events at one stage.
func cacheOutcomes(t *testing.T, m *obs.Manifest, stage string) map[string]int {
	t.Helper()
	out := map[string]int{}
	if m == nil || m.Cache == nil {
		return out
	}
	for _, e := range m.Cache.Events {
		if e.Stage == stage {
			out[e.Outcome]++
		}
	}
	return out
}

// TestServeCacheResponseHit proves the per-process body memo: a
// repeated identical request is answered from the cached result of the
// first run, attributed in the fresh manifest, and visible in both
// /healthz and /metricsz.
func TestServeCacheResponseHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := pgenBody(4, 32, `"include_map": true`)

	code, b := post(t, ts, "/v1/analyze", body)
	if code != 200 {
		t.Fatalf("first request: status %d: %s", code, b)
	}
	first := decodeJob(t, b)
	if first.Result == nil || first.Result.Manifest == nil {
		t.Fatal("first request has no result manifest")
	}
	oc := cacheOutcomes(t, first.Result.Manifest, "serve.analyze")
	if oc[obs.CacheMiss] != 1 || oc[obs.CacheStore] != 1 {
		t.Fatalf("first request serve.analyze events = %v, want miss+store", oc)
	}

	code, b = post(t, ts, "/v1/analyze", body)
	if code != 200 {
		t.Fatalf("second request: status %d: %s", code, b)
	}
	second := decodeJob(t, b)
	oc = cacheOutcomes(t, second.Result.Manifest, "serve.analyze")
	if oc[obs.CacheHit] != 1 || oc[obs.CacheStore] != 0 {
		t.Fatalf("second request serve.analyze events = %v, want one hit and no store", oc)
	}
	r1, r2 := first.Result, second.Result
	if len(r2.Map) != len(r1.Map) {
		t.Fatalf("served map length %d != computed %d", len(r2.Map), len(r1.Map))
	}
	for i := range r1.Map {
		if r2.Map[i] != r1.Map[i] { //irfusion:exact a memo hit serves the stored bits
			t.Fatalf("served map differs from computed at %d", i)
		}
	}
	if st := s.cache.Stats(); st.Hits < 1 || st.Stores < 1 || st.Entries < 1 {
		t.Fatalf("server cache stats = %+v, want hits/stores/entries >= 1", st)
	}

	// The cache is observable on both operational endpoints.
	code, hb := get(t, ts, "/healthz")
	if code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	var hz struct {
		CacheEntries int `json:"cache_entries"`
	}
	if err := json.Unmarshal(hb, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.CacheEntries < 1 {
		t.Fatalf("healthz cache view = %+v", hz)
	}
	_, mb := get(t, ts, "/metricsz")
	var mz struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Stores int64 `json:"stores"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(mb, &mz); err != nil {
		t.Fatal(err)
	}
	if mz.Cache.Hits < 1 || mz.Cache.Stores < 1 {
		t.Fatalf("metricsz cache stats = %+v", mz.Cache)
	}
}

// TestServeCacheKeyedByRequestShape proves the memo is keyed by the
// whole body: the same design at a different iteration budget must not
// be served the converged result.
func TestServeCacheKeyedByRequestShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code, b := post(t, ts, "/v1/analyze", pgenBody(4, 32, "")); code != 200 {
		t.Fatalf("prime request: status %d: %s", code, b)
	}
	code, b := post(t, ts, "/v1/analyze", pgenBody(4, 32, `"iters": 3, "precond": "ssor"`))
	if code != 200 {
		t.Fatalf("budgeted request: status %d: %s", code, b)
	}
	v := decodeJob(t, b)
	if oc := cacheOutcomes(t, v.Result.Manifest, "serve.analyze"); oc[obs.CacheHit] != 0 {
		t.Fatalf("budgeted request hit the converged entry: %v", oc)
	}
}
