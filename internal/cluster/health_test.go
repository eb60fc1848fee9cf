package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"irfusion/internal/faults"
)

// TestCircuitBreakerTransitions is the table of a shard's health
// record. Each row drives one gateway over one stub shard through a
// sequence of probes and forwards, then reads the shard's breaker and
// counts the forwards that reached it.
//
//	probe-ok, probe-fail      a health probe that succeeds or fails
//	forward-ok, forward-503   a request the shard answers 200 or 503 (queue full)
//	forward-fail              a request whose forward drops (cluster.forward fail)
//	requests-6s               a request every 100 ms for 6 s, each answered without the shard
func TestCircuitBreakerTransitions(t *testing.T) {
	for _, row := range []struct {
		name     string
		steps    string
		breaker  string
		forwards int64 // requests the stub shard answered
	}{
		{"a failure streak broken by a success stays in rotation",
			"probe-fail probe-fail forward-ok probe-fail probe-fail", "closed", 1},
		{"3 failures take the shard out",
			"probe-fail probe-fail probe-fail forward-ok", "open", 0},
		{"a failed forward counts",
			"probe-fail probe-fail forward-fail forward-ok", "open", 0},
		{"a 503 does not count",
			"probe-fail probe-fail forward-503 forward-503 forward-ok", "closed", 3},
		{"a healthy probe brings the shard back",
			"probe-fail probe-fail probe-fail probe-ok forward-ok", "closed", 1},
		{"a shard out of rotation gets no forward until a healthy probe",
			"probe-fail probe-fail probe-fail requests-6s probe-ok forward-ok", "closed", 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			var status atomic.Int32 // the stub's answer to /v1/analyze
			var forwards atomic.Int64
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/analyze" {
					forwards.Add(1)
					w.WriteHeader(int(status.Load()))
				}
			}))
			defer stub.Close()
			gw := newGatewayT(t, Config{Shards: []ShardSpec{{Name: "s0", URL: stub.URL}}, ProbeInterval: time.Hour})
			fail := func(site string) context.Context {
				return faults.WithInjector(context.Background(), faults.New(faults.Rule{Site: site, Action: faults.ActFail}))
			}
			forward := func(ctx context.Context, code int) {
				status.Store(int32(code))
				r := httptest.NewRequest(http.MethodPost, "/v1/analyze", nil).WithContext(ctx)
				gw.forward(httptest.NewRecorder(), r, "key", nil)
			}
			for _, step := range strings.Fields(row.steps) {
				switch step {
				case "probe-ok":
					gw.probeNow(context.Background())
				case "probe-fail":
					gw.probeNow(fail(faults.SiteClusterProbe))
				case "forward-ok":
					forward(context.Background(), http.StatusOK)
				case "forward-503":
					forward(context.Background(), http.StatusServiceUnavailable)
				case "forward-fail":
					forward(fail(faults.SiteClusterForward), http.StatusOK)
				case "requests-6s":
					before := forwards.Load()
					for end := time.Now().Add(6 * time.Second); time.Now().Before(end); time.Sleep(100 * time.Millisecond) {
						forward(context.Background(), http.StatusOK)
					}
					if n := forwards.Load() - before; n != 0 {
						t.Fatalf("%d forwards reached the shard out of rotation over 6 s", n)
					}
				default:
					t.Fatalf("unknown step %q", step)
				}
			}
			if got := gw.breakerStates()["s0"]; got != row.breaker {
				t.Errorf("breaker %q, want %q", got, row.breaker)
			}
			if got := forwards.Load(); got != row.forwards {
				t.Errorf("%d forwards reached the shard, want %d", got, row.forwards)
			}
		})
	}
}

// newGatewayT builds a gateway that the test closes when it ends.
func newGatewayT(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = gw.Close(ctx)
	})
	return gw
}

// TestGatewayCountsBreakerTrips: taking a shard out of rotation moves
// cluster.breaker.trips on the gateway's own /metricsz and on
// GET /v1/cluster, the two places an operator reads gateway counters.
func TestGatewayCountsBreakerTrips(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // the address is now guaranteed-refused
	gw := newGatewayT(t, Config{Shards: []ShardSpec{{Name: "s0", URL: dead.URL}}, ProbeInterval: time.Hour})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	trips := func(path string) int64 {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Counters["cluster.breaker.trips"]
	}
	before := trips("/metricsz")
	for i := 0; i < failureLimit; i++ {
		gw.probeNow(context.Background())
	}
	if st := gw.breakerStates()["s0"]; st != "open" {
		t.Fatalf("breaker %q after %d failed probes, want open", st, failureLimit)
	}
	if got := trips("/metricsz"); got < before+1 {
		t.Errorf("/metricsz cluster.breaker.trips %d, want >= %d", got, before+1)
	}
	if got := trips("/v1/cluster"); got < before+1 {
		t.Errorf("/v1/cluster cluster.breaker.trips %d, want >= %d", got, before+1)
	}
}
