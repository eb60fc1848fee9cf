package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCircuitBreakerTransitions walks the full state machine with a
// fake clock: closed → (threshold failures) → open → (cooldown) →
// half-open → probe failure → open → (cooldown) → half-open → probe
// success → closed.
func TestCircuitBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, time.Minute)
	b.now = func() time.Time { return now }

	if got := b.position(); got != breakerClosed {
		t.Fatalf("initial state %v", got)
	}
	// Two failures + success resets the consecutive count.
	b.record(false)
	b.record(false)
	b.record(true)
	b.record(false)
	b.record(false)
	if got := b.position(); got != breakerClosed {
		t.Fatalf("state %v after interrupted failure streak", got)
	}
	// Third consecutive failure trips it.
	b.record(false)
	if got := b.position(); got != breakerOpen {
		t.Fatalf("state %v after threshold failures", got)
	}
	if b.allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}
	// Cooldown elapses: one probe is admitted, concurrent calls are not.
	now = now.Add(2 * time.Minute)
	if !b.allow() {
		t.Fatal("breaker did not admit the half-open probe")
	}
	if got := b.position(); got != breakerHalfOpen {
		t.Fatalf("state %v after probe admission", got)
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: back to open for another cooldown.
	b.record(false)
	if got := b.position(); got != breakerOpen {
		t.Fatalf("state %v after failed probe", got)
	}
	if b.allow() {
		t.Fatal("re-opened breaker allowed a call")
	}
	// Second cooldown, successful probe: closed again.
	now = now.Add(2 * time.Minute)
	if !b.allow() {
		t.Fatal("breaker did not admit the second probe")
	}
	b.record(true)
	if got := b.position(); got != breakerClosed {
		t.Fatalf("state %v after successful probe", got)
	}
	if !b.allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

// TestGatewayCountsBreakerTrips: opening a shard's breaker moves
// cluster.breaker.trips on the gateway's own /metricsz and on
// GET /v1/cluster, the two places an operator reads gateway counters.
func TestGatewayCountsBreakerTrips(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // the address is now guaranteed-refused
	gw, err := New(Config{
		Shards:           []ShardSpec{{Name: "s0", URL: dead.URL}},
		ProbeInterval:    -1,
		ProbeTimeout:     200 * time.Millisecond,
		BreakerThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = gw.Close(ctx)
	}()
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
	gw.probeNow(context.Background())
	if st := gw.breakerStates()["s0"]; st != breakerOpen {
		t.Fatalf("breaker %q after a failed probe at threshold 1, want open", st)
	}
	if got := trips("/metricsz"); got < before+1 {
		t.Errorf("/metricsz cluster.breaker.trips %d, want >= %d", got, before+1)
	}
	if got := trips("/v1/cluster"); got < before+1 {
		t.Errorf("/v1/cluster cluster.breaker.trips %d, want >= %d", got, before+1)
	}
}
