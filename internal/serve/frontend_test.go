package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"irfusion/internal/circuit"
	"irfusion/internal/faults"
	"irfusion/internal/pgen"
	"irfusion/internal/spice"
)

// spiceBody wraps a deck into an analyze request.
func spiceBody(deck, extra string) string {
	if extra != "" {
		extra = ", " + extra
	}
	return `{"spice": ` + mustJSON(deck) + extra + `}`
}

// capOnlyDecks name node n1_m1_5_5 from nothing but a capacitor: no
// resistive path to the pad, so Assemble cannot reduce the system.
var capOnlyDecks = map[string]string{
	"two-terminal": "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1\nI1 n1_m1_1_0 0 0.01\nC1 n1_m1_1_0 n1_m1_5_5 1e-12\n",
	"grounded":     "V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1_0 1\nI1 n1_m1_1_0 0 0.01\nC1 0 n1_m1_5_5 1e-12\n",
}

// TestAnalyzeCapacitorOnlyNode400: such a deck used to lint clean, take a
// queue slot, get journaled and fail mid-job with a 500 (the validator
// never interned capacitor terminals; FromNetlist did). One walk lints
// the nodes Assemble will see: 400, floating-node, the node named,
// nothing journaled. A decap between two connected nodes still passes.
func TestAnalyzeCapacitorOnlyNode400(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, JournalDir: dir})
	ts := httptest.NewServer(s.Handler())
	for name, deck := range capOnlyDecks {
		code, b := post(t, ts, "/v1/analyze", spiceBody(deck, ""))
		var resp struct {
			Issues []circuit.DeckIssue `json:"issues"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%v), want a 400 with issues: %s", name, code, err, b)
		}
		if len(resp.Issues) != 1 || resp.Issues[0].Code != circuit.IssueFloatingNode || resp.Issues[0].Node != "n1_m1_5_5" {
			t.Errorf("%s: issues %+v, want one %s naming n1_m1_5_5", name, resp.Issues, circuit.IssueFloatingNode)
		}
	}
	ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := journalTypes(t, dir); len(got) != 0 {
		t.Errorf("a rejected deck was journaled: %v", got)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1})
	ok := strings.Replace(capOnlyDecks["two-terminal"], "n1_m1_5_5", "n1_m1_0_0", 1)
	if code, b := post(t, ts2, "/v1/analyze", spiceBody(ok, "")); code != http.StatusOK {
		t.Errorf("decap between connected nodes: status %d: %s", code, b)
	}
}

// setFirst returns deck with value in place of the value of its first
// card of the given type letter.
func setFirst(deck, letter, value string) string {
	lines := strings.Split(deck, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, letter) {
			f := strings.Fields(l)
			f[len(f)-1] = value
			lines[i] = strings.Join(f, " ")
			break
		}
	}
	return strings.Join(lines, "\n")
}

// TestAnalyzeNonFiniteValue400: a value that overflows when parsed used
// to pass admission and reach the solver. A load of 1e308k (+Inf) or a
// resistor of 1e-300f (conductance +Inf) made a map of NaNs, which the
// encoder refused after the 200 status line: an empty body. A resistor
// of 1e308k (conductance 0) is an edge the connectivity walk counted and
// the matrix did not. Each is a 400 carrying non-finite-value, and
// nothing is journaled.
func TestAnalyzeNonFiniteValue400(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, JournalDir: dir})
	ts := httptest.NewServer(s.Handler())
	for _, tc := range []struct{ letter, value string }{{"I", "1e308k"}, {"R", "1e-300f"}, {"R", "1e308k"}} {
		code, b := post(t, ts, "/v1/analyze", spiceBody(setFirst(genDeck(t, 24, 71), tc.letter, tc.value), ""))
		var resp struct {
			Issues []circuit.DeckIssue `json:"issues"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || code != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d (%v), want a 400 with issues: %.200s", tc.letter, tc.value, code, err, b)
		}
		if len(resp.Issues) == 0 || resp.Issues[0].Code != circuit.IssueNonFinite {
			t.Errorf("%s %s: issues %+v, want %s first", tc.letter, tc.value, resp.Issues, circuit.IssueNonFinite)
		}
	}
	ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := journalTypes(t, dir); len(got) != 0 {
		t.Errorf("a rejected deck was journaled: %v", got)
	}
}

// TestAnalyzePgenAdmittedLikeADeck: a pgen request is generated on the
// handler goroutine, before any deadline, so the fields that set the
// generator's work are bounded there, and the generated deck is linted
// like a submitted one. Each row used to be journaled and run: a 200
// after generating as much as it asked for, or a 500 from the worker
// for a negative wire resistance or a current that overflows to +Inf.
// Now each is a 400, with the deck's issues when the lint found them,
// and nothing is journaled.
func TestAnalyzePgenAdmittedLikeADeck(t *testing.T) {
	layer := func(i int, rPerUm string) string {
		dir := [2]string{"horizontal", "vertical"}[i%2]
		return fmt.Sprintf(`{"layer": %d, "dir": %q, "pitch": 8, "r_per_um": %s, "via_ohms": 1, "via_every": 1}`, i+1, dir, rPerUm)
	}
	stack := func(n int) string {
		var l []string
		for i := range n {
			l = append(l, layer(i, "0.4"))
		}
		return strings.Join(l, ", ")
	}
	// pgenReq is a fake 32 µm design with every field set, so nothing
	// falls back to the class defaults.
	pgenReq := func(seed int, fields string) string {
		return fmt.Sprintf(`{"pgen": {"class": "fake", "w": 32, "h": 32, "seed": %d, "vdd": 1.05, "num_pads": 4, "cell_pitch": 2, `+
			`"background_amps": 5e-5, "hotspot_amps": 4e-4, "hotspots": 2, "layers": [%s], %s}}`, seed, stack(5), fields)
	}
	dir := t.TempDir()
	s := New(Config{Workers: 1, JournalDir: dir})
	ts := httptest.NewServer(s.Handler())
	for _, tc := range []struct {
		name, body string
		issue      string // the first deck issue; "" for a plain 400
	}{
		{name: "17 layers", body: `{"pgen": {"class": "fake", "w": 32, "h": 32, "layers": [` + stack(17) + `]}}`},
		{name: "65 hotspots", body: pgenReq(1, `"hotspots": 65`)},
		{name: "negative hotspots", body: pgenReq(1, `"hotspots": -1`)},
		{name: "17 blockages", body: pgenReq(1, `"blockages": 17, "class": "real"`)},
		{name: "negative wire resistance", body: strings.Replace(pgenReq(1, `"blockages": 0`), layer(0, "0.4"), layer(0, "-0.8"), 1),
			issue: "nonpositive-resistance"},
		{name: "currents that overflow", body: pgenReq(5, `"hotspot_amps": 1e308`), issue: circuit.IssueNonFinite},
		{name: "a drop that overflows the solve", body: pgenReq(1, `"hotspot_amps": 1e308`), issue: circuit.IssueDropOverflow},
	} {
		code, b := post(t, ts, "/v1/analyze", tc.body)
		var resp struct {
			Issues []circuit.DeckIssue `json:"issues"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want a 400: %.200s", tc.name, code, err, b)
			continue
		}
		if got := ""; tc.issue != "" {
			if len(resp.Issues) > 0 {
				got = resp.Issues[0].Code
			}
			if got != tc.issue {
				t.Errorf("%s: issues %+v, want %s first", tc.name, resp.Issues, tc.issue)
			}
		}
	}
	ts.Close()
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := journalTypes(t, dir); len(got) != 0 {
		t.Errorf("a rejected pgen request was journaled: %v", got)
	}
}

// TestAnalyzeDropBound400: a finite current whose IR drop overflows
// the solve used to pass admission and exhaust the solve ladder, a 503
// that says the backends are unhealthy. Σ|I|·ΣR bounds every node's
// drop; a deck whose bound reaches 1e150 V is a 400 carrying
// drop-overflow, and a deck just under it still solves to a finite map.
// The pgen request with the same fault is a row of
// TestAnalyzePgenAdmittedLikeADeck.
func TestAnalyzeDropBound400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	base := genDeck(t, 32, 1)
	nl, err := spice.ParseString(base)
	if err != nil {
		t.Fatal(err)
	}
	sumR := 0.0
	for _, e := range nl.Elements {
		if e.Type == spice.Resistor {
			sumR += e.Value
		}
	}
	load := func(amps float64) string {
		return spiceBody(setFirst(base, "I", strconv.FormatFloat(amps, 'g', -1, 64)), "")
	}
	for _, tc := range []struct{ name, body string }{
		{"a 1e308 load", load(1e308)},
		{"a load just over the bound", load(1.01e150 / sumR)},
	} {
		code, b := post(t, ts, "/v1/analyze", tc.body)
		var resp struct {
			Issues []circuit.DeckIssue `json:"issues"`
		}
		if err := json.Unmarshal(b, &resp); err != nil || code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want a 400: %.200s", tc.name, code, err, b)
			continue
		}
		found := false
		for _, is := range resp.Issues {
			found = found || is.Code == circuit.IssueDropOverflow && strings.Contains(is.Detail, "1e+150")
		}
		if !found {
			t.Errorf("%s: issues %+v, want %s stating the bound", tc.name, resp.Issues, circuit.IssueDropOverflow)
		}
	}
	code, b := post(t, ts, "/v1/analyze", load(0.99e150/sumR))
	if code != http.StatusOK {
		t.Fatalf("a load just under the bound: status %d, want a 200: %.200s", code, b)
	}
	res := decodeJob(t, b).Result
	if res == nil {
		t.Fatal("a load just under the bound: no result")
	}
	if res.MaxDropVolts < 1e100 || math.IsInf(res.MaxDropVolts, 0) {
		t.Errorf("a load just under the bound: max drop %g V, want the load's finite drop", res.MaxDropVolts)
	}
	for i, v := range res.Map {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("a load just under the bound: map[%d] = %g", i, v)
		}
	}
}

// TestAnalyzePgenCardBound: the layer bound alone let a request ask for
// pitch-1 straps on every layer, a deck of about a million cards built
// on the handler goroutine in seconds. The card bound (pgen.MaxCards
// against the body limit) refuses those from the request's numbers
// alone, and still admits the class defaults at the largest die.
func TestAnalyzePgenCardBound(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	pitch1 := func(n int) []pgen.LayerSpec {
		var l []pgen.LayerSpec
		for _, ls := range pgen.DefaultConfig("", pgen.Fake, 256, 256, 1).Layers {
			ls.Pitch = 1
			l = append(l, ls)
		}
		for len(l) < n {
			l = append(l, l[len(l)-2])
		}
		return l
	}
	for _, n := range []int{16, 5} {
		cfg := pgen.DefaultConfig("big", pgen.Fake, 256, 256, 1)
		cfg.Layers = pitch1(n)
		req, err := json.Marshal(AnalyzeRequest{Pgen: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		// The card bound is checked before pgen.Generate is called, so
		// its message shows that nothing was generated.
		code, b := post(t, ts, "/v1/analyze", string(req))
		if code != http.StatusBadRequest || !strings.Contains(string(b), "cards, more than the 262144") {
			t.Errorf("%d pitch-1 layers: status %d, want a 400 on the card bound: %.200s", n, code, b)
		}
	}
	for _, class := range []pgen.Class{pgen.Fake, pgen.Real} {
		cfg := pgen.DefaultConfig("big", class, 256, 256, 1)
		if _, err := s.prepare(&AnalyzeRequest{Pgen: &cfg}); err != nil {
			t.Errorf("default %s config at 256 um refused: %v", class, err)
		}
	}
}

// TestFinishedJobReleasesDeck: the registry retains finished jobs
// (maxJobs of them), so a finished job must not hold its parsed deck —
// done, failed or cancelled, running or still queued when cancelled,
// admitted cold or answered from the memo — while GET
// /v1/jobs/{id} still returns the full result and manifest.
func TestFinishedJobReleasesDeck(t *testing.T) {
	deck := genDeck(t, 24, 61)
	for _, tc := range []struct {
		name  string
		fault faults.Rule // none when Site is empty
		run   func(t *testing.T, s *Server, ts *httptest.Server) []string
	}{
		{"done", faults.Rule{}, func(t *testing.T, s *Server, ts *httptest.Server) []string {
			var ids []string
			// Cold, a byte-identical repeat (answered from the memo: no
			// design is ever built), and a repeat whose memo entry is gone
			// (admitted in full).
			for i, drop := range []bool{false, false, true} {
				if drop {
					j, _ := s.reg.get(ids[0])
					s.cache.Drop(memoKey(j.digest))
				}
				code, b := post(t, ts, "/v1/analyze", spiceBody(deck, `"include_map": true`))
				if code != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, code, b)
				}
				ids = append(ids, decodeJob(t, b).ID)
			}
			code, b := post(t, ts, "/v1/analyze", spiceBody(deck, `"async": true, "iters": 3`))
			if code != http.StatusAccepted {
				t.Fatalf("async: status %d: %s", code, b)
			}
			ids = append(ids, decodeJob(t, b).ID)
			waitStatus(t, ts, ids[3], Status.Terminal)
			for _, id := range ids {
				_, b := get(t, ts, "/v1/jobs/"+id)
				v := decodeJob(t, b)
				if v.Status != StatusDone || v.Result == nil || v.Result.Manifest == nil || v.Result.MaxDropVolts <= 0 {
					t.Errorf("job %s after release: status %q, result %+v", id, v.Status, v.Result)
				}
			}
			if _, b := get(t, ts, "/v1/jobs/"+ids[0]); len(decodeJob(t, b).Result.Map) != 24*24 {
				t.Errorf("released job lost its map")
			}
			return ids
		}},
		{"failed", faults.Rule{Site: faults.SiteServeWorker, Action: faults.ActPanic, Times: 1}, func(t *testing.T, s *Server, ts *httptest.Server) []string {
			code, b := post(t, ts, "/v1/analyze", spiceBody(deck, ""))
			if v := decodeJob(t, b); code != http.StatusInternalServerError || v.Status != statusFailed || v.Result.Manifest == nil {
				t.Fatalf("status %d, job %+v", code, v)
			}
			return []string{decodeJob(t, b).ID}
		}},
		{"cancelled", faults.Rule{Site: faults.SiteServeWorker, Action: faults.ActStall}, func(t *testing.T, s *Server, ts *httptest.Server) []string {
			var ids []string
			for i := 0; i < 2; i++ { // one parks on the worker, one waits in the queue
				code, b := post(t, ts, "/v1/analyze", spiceBody(deck, `"async": true`))
				if code != http.StatusAccepted {
					t.Fatalf("status %d: %s", code, b)
				}
				ids = append(ids, decodeJob(t, b).ID)
				if i == 0 {
					waitStatus(t, ts, ids[0], func(st Status) bool { return st == statusRunning })
				}
			}
			for _, id := range []string{ids[1], ids[0]} {
				del(t, ts, "/v1/jobs/"+id)
				if v := waitStatus(t, ts, id, Status.Terminal); v.Status != statusCancelled {
					t.Fatalf("job %s: status %q", id, v.Status)
				}
			}
			return ids
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fault.Site != "" {
				withGlobalFaults(t, tc.fault)
			}
			s := New(Config{Workers: 1})
			ts := httptest.NewServer(s.Handler())
			ids := tc.run(t, s, ts)
			// Close drains the workers: every job has left runJob, and the
			// reads below are ordered after its writes.
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if j, _ := s.reg.get(id); j.design != nil {
					t.Errorf("finished job %s (%s) retains its design", id, j.Status())
				}
			}
		})
	}
}

// TestServeBuildsNetworkOnce counts the front end's "once": a cold
// request — numerical or fused — interns its deck's node names once
// (circuit.networks) and canonicalises it once (cache.fingerprint.calls);
// a byte-identical repeat does neither; a repeat whose memo entry was
// dropped is admitted in full (one more network and fingerprint).
func TestServeBuildsNetworkOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Analyzer: tinyAnalyzer(t)})
	moved := func(step func()) (networks, fingerprints int64) {
		before := metricszCounters(t, ts)
		step()
		after := metricszCounters(t, ts)
		return after["circuit.networks"] - before["circuit.networks"],
			after["cache.fingerprint.calls"] - before["cache.fingerprint.calls"]
	}
	deck := genDeck(t, fusedRes, 62)
	for _, mode := range []string{ModeNumerical, ModeFused} {
		body := spiceBody(deck, `"mode": "`+mode+`"`)
		var id string
		send := func() {
			code, b := post(t, ts, "/v1/analyze", body)
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", mode, code, b)
			}
			id = decodeJob(t, b).ID
		}
		if nw, fp := moved(send); nw != 1 || fp != 1 {
			t.Errorf("%s, cold: %d network builds and %d fingerprints, want 1 and 1", mode, nw, fp)
		}
		if nw, fp := moved(send); nw != 0 || fp != 0 {
			t.Errorf("%s, byte-identical repeat: %d network builds and %d fingerprints, want none", mode, nw, fp)
		}
		j, _ := s.reg.get(id)
		s.cache.Drop(memoKey(j.digest))
		if nw, fp := moved(send); nw != 1 || fp != 1 {
			t.Errorf("%s, repeat without its memo entry: %d network builds and %d fingerprints, want 1 and 1", mode, nw, fp)
		}
	}
}
