// Package cache is the content-addressed artifact cache of the
// analysis pipeline: the piece that turns ECO-loop traffic — the same
// power grid re-analyzed after a strap edit — from full re-solves into
// warm starts. It is stdlib-only and concurrency-safe.
//
// Artifacts are keyed by a canonical fingerprint of the design
// (fingerprint.go): the SPICE deck is canonicalized — elements sorted,
// names and whitespace dropped, values normalized, symmetric node
// pairs ordered — and hashed, so two decks that describe the same
// electrical network map to the same key regardless of element order
// or formatting. artifact.go implements the one solution-reuse path,
// the warm start: a cached solve whose conductance matrix differs from
// the request's in at most a configured fraction of entries — none, for
// a repeat — donates its converged solution (as a PCG initial guess)
// and its AMG hierarchy (as a preconditioner), skipping the dominant
// setup cost.
//
// The cache itself is a byte-bounded LRU with per-entry TTL. Every
// operation is safe on a nil *Cache (a nil cache is simply "caching
// off"), and like internal/obs the package is reached only through the
// context: code resolves the cache with FromContext(ctx), and a caller
// that wants caching binds one with WithCache — a server once per
// process. Nothing is cached unless a caller asks for it.
package cache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"irfusion/internal/obs"
)

// Process-wide cache counters, registered in the obs global registry
// so they surface in /metricsz, the expvar debug endpoint and a CLI
// run's manifest.
var (
	cHit   = obs.GlobalCounter("cache.hit")
	cMiss  = obs.GlobalCounter("cache.miss")
	cStore = obs.GlobalCounter("cache.store")
	cEvict = obs.GlobalCounter("cache.evict")
	// cFingerprint counts DesignFingerprint computations — canonicalise,
	// sort, hash, about 2.3 ms at 128 µm: a cold request pays exactly one.
	cFingerprint = obs.GlobalCounter("cache.fingerprint.calls")
)

// Default sizing used by New for a bound or TTL it is not given.
const (
	defaultMaxBytes = 256 << 20 // 256 MiB
	defaultTTL      = time.Hour
)

// Cache is a size-bounded LRU + TTL store of content-addressed
// artifacts, shared by every worker of a serving process. All methods
// are safe for concurrent use and safe on a nil receiver (a nil cache
// never hits and never stores).
type Cache struct {
	maxBytes int64
	ttl      time.Duration
	now      func() time.Time // injectable clock for TTL tests

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	bytes   int64

	hits, misses, stores, evicts, expired atomic.Int64
}

// entry is one cached artifact.
type entry struct {
	key    string
	tag    string
	value  any
	bytes  int64
	stored time.Time
}

// New returns a cache bounded to maxBytes of accounted artifact size
// (<= 0 means defaultMaxBytes) whose entries expire ttl after their
// store (<= 0 means defaultTTL).
func New(maxBytes int64, ttl time.Duration) *Cache {
	if maxBytes <= 0 {
		maxBytes = defaultMaxBytes
	}
	if ttl <= 0 {
		ttl = defaultTTL
	}
	return &Cache{
		maxBytes: maxBytes,
		ttl:      ttl,
		now:      time.Now,
		ll:       list.New(),
		entries:  map[string]*list.Element{},
	}
}

// Get returns the live value stored under key, refreshing its LRU
// position. Expired entries are removed and count as misses.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		cMiss.Inc()
		return nil, false
	}
	e := el.Value.(*entry)
	if c.expiredLocked(e) {
		c.removeLocked(el)
		c.expired.Add(1)
		c.misses.Add(1)
		cMiss.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	cHit.Inc()
	return e.value, true
}

// Put stores value under key, accounting bytes toward the size bound
// and evicting least-recently-used entries until the cache fits. The
// tag groups comparable entries for scanTag (neighbor search); an
// entry nothing scans for takes the empty tag. A
// value larger than the whole bound is still admitted — it simply
// evicts everything else and will be the next victim.
func (c *Cache) Put(key string, value any, bytes int64, tag string) {
	if c == nil {
		return
	}
	if bytes < 0 {
		bytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	e := &entry{key: key, tag: tag, value: value, bytes: bytes, stored: c.now()}
	c.entries[key] = c.ll.PushFront(e)
	c.bytes += bytes
	c.stores.Add(1)
	cStore.Inc()
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		victim := c.ll.Back()
		c.removeLocked(victim)
		c.evicts.Add(1)
		cEvict.Inc()
	}
}

// Drop removes the entry stored under key, if any — the reaction to a
// guard check exposing a stale or corrupted artifact.
func (c *Cache) Drop(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
		c.evicts.Add(1)
		cEvict.Inc()
	}
}

// scanTag visits live entries carrying tag in most-recently-used
// order, calling fn until it returns false or limit matches were
// seen (limit <= 0 means unlimited). The callback runs under the
// cache lock, so it must be cheap and must not call back into the
// cache; copy what you need and compute outside.
func (c *Cache) scanTag(tag string, limit int, fn func(key string, value any) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry)
		if e.tag == tag {
			if c.expiredLocked(e) {
				c.removeLocked(el)
				c.expired.Add(1)
			} else {
				seen++
				if !fn(e.key, e.value) {
					return
				}
				if limit > 0 && seen >= limit {
					return
				}
			}
		}
		el = next
	}
}

// Stats is a point-in-time snapshot of cache occupancy and traffic,
// rendered on /metricsz by the serving layer.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	Expired   int64 `json:"expired"`
}

// Stats snapshots the cache. A nil cache reports the zero value.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return Stats{
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evicts.Load(),
		Expired:   c.expired.Load(),
	}
}

// Len returns the number of live entries (including not-yet-collected
// expired ones).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// expiredLocked reports whether e is past its TTL. Caller holds c.mu.
func (c *Cache) expiredLocked(e *entry) bool {
	return c.now().Sub(e.stored) > c.ttl
}

// removeLocked unlinks el from the list, index, and byte account.
// Caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

// ctxKey is the private context key for a bound Cache.
type ctxKey struct{}

// WithCache returns a copy of ctx carrying c — how a serving process
// shares one per-process cache across all worker jobs.
func WithCache(ctx context.Context, c *Cache) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the cache bound to ctx, or nil (caching off)
// when none is bound or ctx is nil.
func FromContext(ctx context.Context) *Cache {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(ctxKey{}).(*Cache)
	return c
}
