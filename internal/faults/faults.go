// Package faults is the fault-injection fixture the tests of the
// analysis pipeline bind: a test builds an Injector from typed Rules
// and hands it to the code under test, which asks it at each
// instrumented site whether to fail. It follows the same nil-safe
// resolution pattern as internal/obs: instrumented code resolves an
// *Injector with ActiveOr(ctx) and pays one context lookup, one atomic
// pointer load and a nil check when no test armed anything.
//
// A test scopes its rules to a context with WithInjector. Tests of a
// running server, whose worker contexts descend from the server and
// not from the test, install a process-global injector with SetActive
// and remove it in a cleanup:
//
//	faults.SetActive(faults.New(faults.Rule{Site: faults.SiteServeWorker, Action: faults.ActPanic, Times: 1}))
//	t.Cleanup(func() { faults.SetActive(nil) })
//
// Matching is deterministic: a rule matches an arrival at its site
// (and label, when it names one), skips the first After matches and
// fires at most Times times.
package faults

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Injection sites. Call sites pass these to Fire; rules name them.
const (
	SitePCG         = "solver.pcg"   // per-iteration hook in solver.PCGCtx
	SiteAMGSetup    = "amg.setup"    // hierarchy construction in amg.BuildCtx
	SiteServeWorker = "serve.worker" // job execution in internal/serve workers
	SiteCacheLookup = "cache.lookup" // warm-start donor lookup in internal/cache

	// Cluster sites fire in the gateway (internal/cluster), labeled
	// with the target shard's name: cluster.probe simulates a dead or
	// slow shard health probe (fail records a probe failure without
	// touching the network, latency delays the probe past its budget),
	// and cluster.forward kills a request forward as if the shard
	// connection dropped — exercising ring handoff to the successor.
	SiteClusterProbe   = "cluster.probe"   // shard health probe in the gateway
	SiteClusterForward = "cluster.forward" // request forward in the gateway

	// The durability site fires in the crash-recovery layer at every
	// write-ahead journal append, labeled with the record type.
	SiteJournalAppend = "journal.append" // WAL append in internal/journal
)

// Actions a fired fault can request. The call site interprets them;
// an action a site does not know is ignored there.
const (
	ActBreakdown  = "breakdown"  // return solver.ErrBreakdown
	ActIndefinite = "indefinite" // return solver.ErrIndefinite
	ActNaN        = "nan"        // poison a residual entry with NaN
	ActFail       = "fail"       // fail the operation with an injected error
	ActLatency    = "latency"    // sleep Delay before proceeding
	ActStall      = "stall"      // block until the context is cancelled
	ActPanic      = "panic"      // panic inside the instrumented goroutine
	ActStale      = "stale"      // serve a corrupted copy of a cache entry (guards must catch it)
	ActTorn       = "torn"       // tear a journal append mid-frame, as if the process crashed
)

// Rule is one fault a test arms: Action at Site, only for arrivals
// labeled Label (empty matches any label), skipping the first After
// matching arrivals and firing at most Times times (0: unlimited).
// Delay is the sleep of an ActLatency fault.
type Rule struct {
	Site, Action, Label string
	After, Times        int
	Delay               time.Duration
}

// Fault describes one fired injection. Exactly what the call site
// asked Fire about, plus the action and parameters from the matching
// rule.
type Fault struct {
	Site   string
	Action string
	Label  string        // the label the call site passed to Fire
	Delay  time.Duration // for ActLatency
}

// Sleep performs a latency or stall fault cooperatively: latency
// sleeps Delay (interruptible by ctx), stall blocks until ctx is
// done. Returns the context error when interrupted, nil otherwise.
// Other actions are a no-op.
func (f *Fault) Sleep(ctx context.Context) error {
	if f == nil {
		return nil
	}
	switch f.Action {
	case ActLatency:
		if f.Delay <= 0 {
			return nil
		}
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case ActStall:
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// Error returns the error an ActFail fault carries to the caller.
func (f *Fault) Error() error {
	return fmt.Errorf("faults: injected %s at %s", f.Action, f.Site)
}

// armed is one rule with its firing state.
type armed struct {
	Rule
	matched int // arrivals that matched site+label
	fired   int
}

// Injector evaluates fault rules. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Injector never fires).
type Injector struct {
	mu    sync.Mutex
	rules []*armed
}

// New arms rules; Fire applies the first one that matches. With no
// rules it returns nil, the injector that never fires.
func New(rules ...Rule) *Injector {
	if len(rules) == 0 {
		return nil
	}
	in := &Injector{}
	for _, r := range rules {
		in.rules = append(in.rules, &armed{Rule: r})
	}
	return in
}

// Fire asks whether a fault should trigger at site for the given
// label (empty when the site has no label concept). It returns the
// fault to apply, or nil. Nil-safe: a nil receiver always returns
// nil, so the disabled-path cost at a call site is one nil check.
func (in *Injector) Fire(site, label string) *Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.rules {
		if r.Site != site || (r.Label != "" && r.Label != label) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.Times > 0 && r.fired >= r.Times {
			continue
		}
		r.fired++
		return &Fault{Site: site, Action: r.Action, Label: label, Delay: r.Delay}
	}
	return nil
}

// global is the process-global injector, installed with SetActive.
var global atomic.Pointer[Injector]

// SetActive installs (or, with nil, removes) the process-global
// injector: the seam through which a test reaches a server's worker
// contexts. Tests that use it remove it in a cleanup.
func SetActive(in *Injector) { global.Store(in) }

// ctxKey is the private context key for a bound Injector.
type ctxKey struct{}

// WithInjector returns a copy of ctx carrying in, scoping injection
// to one request or test without touching process-global state.
func WithInjector(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, ctxKey{}, in)
}

// ActiveOr resolves the injector for a call site: the context-bound
// injector when present, otherwise the process-global one. Either may
// be nil; every Injector method is nil-safe.
func ActiveOr(ctx context.Context) *Injector {
	if ctx != nil {
		if in, _ := ctx.Value(ctxKey{}).(*Injector); in != nil {
			return in
		}
	}
	return global.Load()
}
