// Package faults is a deterministic, seed-driven fault-injection
// harness for exercising the degradation paths of the analysis
// pipeline on demand. It is stdlib-only and follows the same
// nil-safe, context-or-global resolution pattern as internal/obs:
// instrumented code resolves an *Injector with ActiveOr(ctx) and pays
// one atomic pointer load plus a nil check when injection is off —
// no allocations, no locks, no branches beyond the nil test.
//
// An injector is configured by a spec string, either per-process via
// the IRFUSION_FAULTS environment variable (parsed at package init,
// so `IRFUSION_FAULTS=... go test ./...` chaos runs need no code
// changes) or per-test/per-request via Parse + WithInjector.
//
// # Spec grammar
//
// A spec is a semicolon-separated list of clauses:
//
//	spec   := clause (";" clause)*
//	clause := "seed=" int
//	        | site ":" action [":" key "=" val ("," key "=" val)*]
//
// Sites and the actions they honor:
//
//	solver.pcg    breakdown | indefinite | nan | inf | panic
//	amg.setup     fail
//	dataset.build latency | stall
//	features.map  latency
//	serve.worker  panic | latency | stall
//	cache.lookup  stale | evict | fail
//	cache.delta   latency | fail
//	cluster.probe   fail | latency
//	cluster.forward fail | latency
//	journal.append     fail | torn
//	checkpoint.save    latency | stall | fail
//	checkpoint.restore corrupt | fail
//
// Modifier keys (all optional):
//
//	p=F        fire with probability F (seeded rng; default 1)
//	times=N    fire at most N times (default unlimited)
//	after=K    skip the first K matching arrivals (default 0)
//	delay=D    duration for latency faults (Go syntax, e.g. 50ms)
//	label=S    only match when the call site passes label S
//	           (e.g. a solve's obs label; default: match any)
//
// Example — force a numerical breakdown in every AMG-rung solve and
// add 20ms of latency to half of all dataset builds:
//
//	IRFUSION_FAULTS='solver.pcg:breakdown:label=numerical.amg;dataset.build:latency:delay=20ms,p=0.5'
//
// Matching is deterministic: the seeded generator (default seed 1,
// overridden by a seed= clause) drives every probability draw, so a
// given spec produces the same fault sequence run to run.
package faults

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection sites. Call sites pass these to Fire; specs name them.
const (
	SitePCG          = "solver.pcg"    // per-iteration hook in solver.PCGCtx
	SiteAMGSetup     = "amg.setup"     // hierarchy construction in amg.BuildCtx
	SiteDatasetBuild = "dataset.build" // start of a dataset build (BuildCtx, BuildInferenceCtx)
	SiteFeatures     = "features.map"  // per-map hook in internal/features
	SiteServeWorker  = "serve.worker"  // job execution in internal/serve workers
	SiteCacheLookup  = "cache.lookup"  // exact-hit artifact lookup in internal/cache
	SiteCacheDelta   = "cache.delta"   // neighbor delta check before a warm start

	// Cluster sites fire in the gateway (internal/cluster), labeled
	// with the target shard's name: cluster.probe simulates a dead or
	// slow shard health probe (fail records a probe failure without
	// touching the network, latency delays the probe past its budget),
	// and cluster.forward kills a request forward as if the shard
	// connection dropped — exercising ring handoff to the successor.
	SiteClusterProbe   = "cluster.probe"   // shard health probe in the gateway
	SiteClusterForward = "cluster.forward" // request forward in the gateway

	// Durability sites fire in the crash-recovery layer:
	// journal.append at every write-ahead journal append (labeled with
	// the record type, so a spec can target e.g. only "finished"
	// records), checkpoint.save when a solver checkpoint is persisted,
	// and checkpoint.restore when a cached/journaled checkpoint is
	// loaded for a resume — ActCorrupt there poisons the restored
	// iterate so the resume residual guard must reject it.
	SiteJournalAppend     = "journal.append"     // WAL append in internal/journal
	SiteCheckpointSave    = "checkpoint.save"    // checkpoint persistence in internal/cache
	SiteCheckpointRestore = "checkpoint.restore" // checkpoint restore in internal/cache
)

// knownSites is the closed registry Parse validates spec sites
// against: a typo'd site in IRFUSION_FAULTS used to be accepted
// silently and simply never fire, running a chaos suite that injected
// nothing. irfusionlint's sitedrift rule keeps this map and the Site*
// constants in lockstep (both directions) and flags Fire calls naming
// sites outside it.
var knownSites = map[string]bool{
	SitePCG:               true,
	SiteAMGSetup:          true,
	SiteDatasetBuild:      true,
	SiteFeatures:          true,
	SiteServeWorker:       true,
	SiteCacheLookup:       true,
	SiteCacheDelta:        true,
	SiteClusterProbe:      true,
	SiteClusterForward:    true,
	SiteJournalAppend:     true,
	SiteCheckpointSave:    true,
	SiteCheckpointRestore: true,
}

// Actions a fired fault can request. The call site interprets them;
// unknown actions at a site are ignored (Fire returns them anyway so
// new actions can be added without touching the parser).
const (
	ActBreakdown  = "breakdown"  // return solver.ErrBreakdown
	ActIndefinite = "indefinite" // return solver.ErrIndefinite
	ActNaN        = "nan"        // poison a residual entry with NaN
	ActInf        = "inf"        // poison a residual entry with +Inf
	ActFail       = "fail"       // fail the operation with an injected error
	ActLatency    = "latency"    // sleep Delay before proceeding
	ActStall      = "stall"      // block until the context is cancelled
	ActPanic      = "panic"      // panic inside the instrumented goroutine
	ActStale      = "stale"      // serve a corrupted copy of a cache entry (guards must catch it)
	ActEvict      = "evict"      // drop the entry mid-lookup, as if eviction won the race
	ActTorn       = "torn"       // tear a journal append mid-frame, as if the process crashed
	ActCorrupt    = "corrupt"    // poison a restored checkpoint (the resume guard must catch it)
)

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
// Other actions are a no-op. Callers without a context should pass
// context.Background() and only configure latency faults at that
// site — a stall there would block forever by design.
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

// rule is one parsed clause with its firing state.
type rule struct {
	site   string
	action string
	label  string  // empty matches any label
	p      float64 // firing probability; 1 fires always
	times  int     // max fires; 0 means unlimited
	after  int     // matching arrivals to skip first
	delay  time.Duration

	matched int // arrivals that matched site+label
	fired   int
}

// Injector evaluates fault rules. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Injector never fires).
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*rule
	spec  string
	seed  int64
}

// Parse builds an Injector from a spec string. An empty or
// whitespace-only spec yields nil (injection disabled) with no error.
func Parse(spec string) (*Injector, error) {
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" {
		return nil, nil
	}
	in := &Injector{spec: trimmed, seed: 1}
	for _, clause := range strings.Split(trimmed, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed clause %q: %w", clause, err)
			}
			in.seed = seed
			continue
		}
		r, err := parseRule(clause)
		if err != nil {
			return nil, err
		}
		in.rules = append(in.rules, r)
	}
	if len(in.rules) == 0 {
		return nil, fmt.Errorf("faults: spec %q has no fault clauses", trimmed)
	}
	in.rng = rand.New(rand.NewSource(in.seed))
	return in, nil
}

func parseRule(clause string) (*rule, error) {
	parts := strings.SplitN(clause, ":", 3)
	if len(parts) < 2 || strings.TrimSpace(parts[0]) == "" || strings.TrimSpace(parts[1]) == "" {
		return nil, fmt.Errorf("faults: clause %q is not site:action[:params]", clause)
	}
	r := &rule{
		site:   strings.TrimSpace(parts[0]),
		action: strings.TrimSpace(parts[1]),
		p:      1,
	}
	if !knownSites[r.site] {
		return nil, fmt.Errorf("faults: clause %q names unknown site %q; known sites are the faults.Site* constants", clause, r.site)
	}
	if len(parts) == 3 {
		for _, kv := range strings.Split(parts[2], ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faults: clause %q: parameter %q is not key=value", clause, kv)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "p":
				r.p, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.p < 0 || r.p > 1) {
					err = fmt.Errorf("probability %v outside [0,1]", r.p)
				}
			case "times":
				r.times, err = strconv.Atoi(val)
			case "after":
				r.after, err = strconv.Atoi(val)
			case "delay":
				r.delay, err = time.ParseDuration(val)
			case "label":
				r.label = val
			default:
				err = fmt.Errorf("unknown key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("faults: clause %q: %w", clause, err)
			}
		}
	}
	return r, nil
}

// MustParse is Parse that panics on a malformed spec — for tests and
// for the env-var path, where a typo should fail loudly rather than
// silently run an un-injected chaos suite.
func MustParse(spec string) *Injector {
	in, err := Parse(spec)
	if err != nil {
		panic(err)
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
		if r.site != site || (r.label != "" && r.label != label) {
			continue
		}
		r.matched++
		if r.matched <= r.after {
			continue
		}
		if r.times > 0 && r.fired >= r.times {
			continue
		}
		if r.p < 1 && in.rng.Float64() >= r.p {
			continue
		}
		r.fired++
		return &Fault{Site: site, Action: r.action, Label: label, Delay: r.delay}
	}
	return nil
}

// Spec returns the spec string the injector was parsed from.
func (in *Injector) Spec() string {
	if in == nil {
		return ""
	}
	return in.spec
}

// active is the process-global injector, installed from the
// IRFUSION_FAULTS environment variable at init or via SetActive.
var active atomic.Pointer[Injector]

// EnvVar is the environment variable holding the process-wide fault
// spec.
const EnvVar = "IRFUSION_FAULTS"

func init() {
	if spec := os.Getenv(EnvVar); strings.TrimSpace(spec) != "" {
		in, err := Parse(spec)
		if err != nil {
			// A malformed chaos spec must not silently disable the
			// chaos run it was meant to drive.
			panic(fmt.Sprintf("faults: invalid %s: %v", EnvVar, err))
		}
		active.Store(in)
	}
}

// Active returns the process-global injector, or nil when injection
// is disabled.
func Active() *Injector { return active.Load() }

// SetActive installs (or, with nil, removes) the process-global
// injector. Tests that use it should restore the previous value.
func SetActive(in *Injector) { active.Store(in) }

// ctxKey is the private context key for a bound Injector.
type ctxKey struct{}

// WithInjector returns a copy of ctx carrying in, scoping injection
// to one request or test without touching process-global state.
func WithInjector(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, ctxKey{}, in)
}

// ActiveOr resolves the injector for a context-aware call site: the
// context-bound injector when present, otherwise the process-global
// one. Either may be nil; every Injector method is nil-safe.
func ActiveOr(ctx context.Context) *Injector {
	if ctx != nil {
		if in, _ := ctx.Value(ctxKey{}).(*Injector); in != nil {
			return in
		}
	}
	return Active()
}
