package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"irfusion/internal/pgen"
	"irfusion/internal/serve"
)

// answer is what a client finally holds for one body: the status, the
// job's result (an async job polled to its end) or the error text, and
// the headers of the first response.
type answer struct {
	code   int
	res    *serve.AnalyzeResult
	errMsg string
	header http.Header
}

// finalAnswer posts body to base's /v1/analyze and, for a 202, polls the
// job at base until it ends. It calls no t method: it runs on the
// test's request goroutines.
func finalAnswer(base string, body []byte) (answer, error) {
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	a := answer{code: resp.StatusCode, header: resp.Header}
	for deadline := time.Now().Add(60 * time.Second); ; {
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return a, err
		}
		var v serve.JobView
		if err := json.Unmarshal(b, &v); err != nil {
			return a, fmt.Errorf("decode %.200s: %w", b, err)
		}
		a.res, a.errMsg = v.Result, v.Error
		if a.code != http.StatusAccepted || v.Status.Terminal() {
			if a.code == http.StatusBadRequest {
				var e struct{ Error string }
				_ = json.Unmarshal(b, &e)
				a.errMsg = e.Error
			}
			return a, nil
		}
		if time.Now().After(deadline) {
			return a, fmt.Errorf("job %s did not end", v.ID)
		}
		time.Sleep(2 * time.Millisecond)
		if resp, err = http.Get(base + "/v1/jobs/" + v.ID); err != nil {
			return a, err
		}
	}
}

// differs reports how got differs from want ("" when it does not): the
// status, the error text, or the answer — summary and map bit for bit.
// A residual and a runtime describe one run (a warm start at delta 0
// re-reads the residual), not the answer.
func (got answer) differs(want answer) string {
	if got.code != want.code || got.errMsg != want.errMsg {
		return fmt.Sprintf("status %d %q, want %d %q", got.code, got.errMsg, want.code, want.errMsg)
	}
	if (got.res == nil) != (want.res == nil) {
		return fmt.Sprintf("result %v, want %v", got.res, want.res)
	}
	if want.res == nil {
		return ""
	}
	g, w := *got.res, *want.res
	if g.Design != w.Design || g.Mode != w.Mode || g.Resolution != w.Resolution || g.HotspotYX == nil || *g.HotspotYX != *w.HotspotYX ||
		math.Float64bits(g.MaxDropVolts) != math.Float64bits(w.MaxDropVolts) ||
		math.Float64bits(g.MeanDropVolts) != math.Float64bits(w.MeanDropVolts) || len(g.Map) != len(w.Map) {
		return fmt.Sprintf("summary %+v, want %+v", g, w)
	}
	for i := range w.Map {
		if math.Float64bits(g.Map[i]) != math.Float64bits(w.Map[i]) {
			return fmt.Sprintf("map cell %d differs", i)
		}
	}
	return ""
}

// lateReader is a gateway transport whose one shard gives up mid-body:
// a big body sent to drop is answered 503 once 64 KiB of it are read,
// and the rest is read only when the test calls rest — as net/http may
// still be writing a request body after Do returned. Every other
// request goes through base.
type lateReader struct {
	base   http.RoundTripper
	drop   string
	mu     sync.Mutex
	parked []parkedBody
}

type parkedBody struct {
	head []byte
	rest io.ReadCloser
}

func (l *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.String(), l.drop) || req.ContentLength <= bigBody {
		return l.base.RoundTrip(req)
	}
	head := make([]byte, 64<<10)
	if _, err := io.ReadFull(req.Body, head); err != nil {
		req.Body.Close()
		return nil, err
	}
	l.mu.Lock()
	l.parked = append(l.parked, parkedBody{head, req.Body})
	l.mu.Unlock()
	return &http.Response{
		StatusCode: http.StatusServiceUnavailable, Header: http.Header{}, Request: req,
		Body: io.NopCloser(strings.NewReader(`{"error": "gave up mid-body"}`)),
	}, nil
}

// rest reads and closes every parked body, and returns them whole.
func (l *lateReader) rest() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][]byte
	for _, p := range l.parked {
		b, err := io.ReadAll(p.rest)
		p.rest.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, append(p.head, b...))
	}
	return out, nil
}

// TestFleetPooledBodiesKeepTheirBytes: request bodies live in pooled
// buffers at the gateway and at the shard, and a buffer may go back to
// its pool only when nothing can still read it. Rounds of sixteen
// concurrent requests, directly to a shard and through the gateway, mix
// memo misses and repeats, async jobs, 400s and two 2 MiB bodies. One
// of them is owned by a shard that gives up 64 KiB in and answers 503
// (see lateReader), so the gateway hands it off to the ring successor
// while the first attempt's body is still being read; that rest is read
// only after more traffic has gone through. Every answer
// must be its own body's, the successor must get the big body byte for
// byte, and so must the attempt that was read late: a gateway that put
// its buffer back when the handler returned, not when the transport
// closed the last attempt's body, fails here (and under -race).
func TestFleetPooledBodiesKeepTheirBytes(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 2}, Config{})
	base, _ := ecoPair(t, 61)
	deck, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	// Each design has its own die size, so no answer can warm-start off
	// another design's system. The two big bodies differ in every
	// padding byte.
	bigA := `{"pgen": {"class": "fake", "w": 12, "h": 12, "seed": 9}, "include_map": true` + strings.Repeat(" ", 2<<20) + "}"
	bigB := `{"pgen": {"class": "fake", "w": 14, "h": 14, "seed": 10}, "include_map": true` + strings.Repeat("\t", 2<<20) + "}"
	bodies := [][]byte{
		[]byte(`{"pgen": {"class": "fake", "w": 16, "h": 16, "seed": 1}, "include_map": true}`),
		[]byte(`{"pgen": {"class": "fake", "w": 20, "h": 20, "seed": 2}, "include_map": true}`),
		[]byte(`{"spice": ` + string(deck) + `, "include_map": true}`),
		[]byte(`{"pgen": {"class": "fake", "w": 28, "h": 28, "seed": 3}, "include_map": true, "async": true}`),
		[]byte(`{"pgen": {"class": "fake", "w": 16, "h": 16, "seed": 4}, "mode": "bogus"}`),
		[]byte(`{"pgen": {"class": "fake", "w": 16, "h": 16, "seed": 5}, "iters": -1}`),
		[]byte(bigA),
		[]byte(bigB),
	}
	succ := f.gw.ring.successors(mustKey(t, &serve.AnalyzeRequest{Pgen: &pgen.Config{Class: pgen.Fake, W: 12, H: 12, Seed: 9}}))
	owner, successor := f.shard(succ[0]), f.shard(succ[1])
	late := &lateReader{base: http.DefaultTransport, drop: owner.ts.URL}
	f.gw.client.Transport = late

	ref := serve.New(serve.Config{Workers: 1})
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(func() {
		refTS.Close()
		_ = ref.Close(context.Background())
	})
	want := make([]answer, len(bodies))
	for i, b := range bodies {
		a, err := finalAnswer(refTS.URL, b)
		if err != nil {
			t.Fatalf("body %d, reference: %v", i, err)
		}
		want[i] = a
	}
	if want[4].code != http.StatusBadRequest || want[5].code != http.StatusBadRequest || want[4].errMsg == want[5].errMsg {
		t.Fatalf("reference 400s: %+v, %+v", want[4], want[5])
	}

	// Two mixed rounds; then eight given-up big bodies beside eight of
	// the other, and sixteen of the other, which reuse whatever buffers
	// are back in the pool by then.
	type pick func(i int) (k int, direct bool)
	mixed := func(i int) (int, bool) { return i % len(bodies), (i+i/len(bodies))%2 == 1 }
	for round, n := range []pick{
		mixed, mixed,
		func(i int) (int, bool) { return 6 + i%2, i%2 == 1 },
		func(i int) (int, bool) { return 7, i%2 == 1 },
	} {
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k, direct := n(i)
				url, via := f.gwTS.URL, "gateway"
				if direct {
					url, via = successor.ts.URL, "direct"
				}
				got, err := finalAnswer(url, bodies[k])
				switch {
				case err != nil:
					errs <- fmt.Sprintf("round %d, body %d %s: %v", round, k, via, err)
				case got.differs(want[k]) != "":
					errs <- fmt.Sprintf("round %d, body %d %s: %s", round, k, via, got.differs(want[k]))
				case k == 6 && via == "gateway" &&
					(got.header.Get(serve.HeaderShard) != successor.name || got.header.Get(serve.HeaderRouteAttempt) != "2"):
					errs <- fmt.Sprintf("round %d, big body answered by %s after %s attempts, want %s after 2",
						round, got.header.Get(serve.HeaderShard), got.header.Get(serve.HeaderRouteAttempt), successor.name)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}

	isBig := func(b []byte) bool { return bytes.Equal(b, bodies[6]) || bytes.Equal(b, bodies[7]) }
	lateBodies, err := late.rest()
	if err != nil {
		t.Fatal(err)
	}
	if len(lateBodies) == 0 {
		t.Fatal("no big body was given up mid-body")
	}
	for i, b := range lateBodies {
		if !isBig(b) {
			t.Errorf("late-read body %d is not the body sent: another request's bytes went out under it", i)
		}
	}
	successor.mu.Lock()
	defer successor.mu.Unlock()
	if len(successor.received) == 0 {
		t.Fatal("the successor received no big body")
	}
	for i, b := range successor.received {
		if !isBig(b) {
			t.Errorf("big body %d reached the successor changed", i)
		}
	}
}
