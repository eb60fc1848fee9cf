package cache

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func newTestCache(maxBytes int64, ttl time.Duration) (*Cache, *fakeClock) {
	c := New(maxBytes, ttl)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.now = clk.now
	return c, clk
}

func TestCachePutGet(t *testing.T) {
	c, _ := newTestCache(1024, time.Minute)
	c.Put("a", 1, 10, "t")
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get(missing) hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Bytes != 10 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheReplaceAccountsBytes(t *testing.T) {
	c, _ := newTestCache(1024, time.Minute)
	c.Put("a", 1, 100, "t")
	c.Put("a", 2, 30, "t")
	if st := c.Stats(); st.Bytes != 30 || st.Entries != 1 {
		t.Fatalf("after replace: %+v", st)
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("replace did not take: %v", v)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := newTestCache(100, time.Minute)
	c.Put("a", "a", 40, "t")
	c.Put("b", "b", 40, "t")
	c.Get("a") // refresh a: b is now the LRU victim
	c.Put("c", "c", 40, "t")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order ignores Get refresh")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted; want it live", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 80 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheOversizeEntryAdmitted(t *testing.T) {
	c, _ := newTestCache(100, time.Minute)
	c.Put("small", 1, 10, "t")
	c.Put("huge", 2, 500, "t") // larger than the whole bound
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("oversize entry rejected; want admitted (it evicts the rest)")
	}
	if _, ok := c.Get("small"); ok {
		t.Fatal("small survived an over-budget admission")
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c, clk := newTestCache(1024, time.Minute)
	c.Put("a", 1, 10, "t")
	clk.advance(59 * time.Second)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived past its TTL")
	}
	st := c.Stats()
	if st.Expired != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after expiry = %+v", st)
	}
}

func TestCacheDrop(t *testing.T) {
	c, _ := newTestCache(1024, time.Minute)
	c.Put("a", 1, 10, "t")
	c.Drop("a")
	c.Drop("a") // idempotent
	if _, ok := c.Get("a"); ok {
		t.Fatal("dropped entry still served")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheScanTag(t *testing.T) {
	c, clk := newTestCache(1024, time.Minute)
	c.Put("a", 1, 10, "x")
	c.Put("b", 2, 10, "y")
	c.Put("c", 3, 10, "x")
	c.Put("d", 4, 10, "x")

	var keys []string
	c.scanTag("x", 0, func(k string, _ any) bool {
		keys = append(keys, k)
		return true
	})
	// MRU order: most recent Put first, tag "y" skipped.
	if fmt.Sprint(keys) != "[d c a]" {
		t.Fatalf("scanTag order = %v, want [d c a]", keys)
	}

	keys = nil
	c.scanTag("x", 2, func(k string, _ any) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 2 {
		t.Fatalf("scanTag limit=2 visited %v", keys)
	}

	keys = nil
	c.scanTag("x", 0, func(k string, _ any) bool {
		keys = append(keys, k)
		return false
	})
	if len(keys) != 1 {
		t.Fatalf("scanTag early-stop visited %v", keys)
	}

	// Expired entries are collected during the scan, not visited.
	clk.advance(2 * time.Minute)
	visited := 0
	c.scanTag("x", 0, func(string, any) bool { visited++; return true })
	if visited != 0 || c.Len() != 1 { // only the "y" entry remains un-collected
		t.Fatalf("after expiry: visited=%d len=%d", visited, c.Len())
	}
}

func TestCacheNilSafety(t *testing.T) {
	var c *Cache
	c.Put("a", 1, 10, "t")
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache hit")
	}
	c.Drop("a")
	c.scanTag("t", 0, func(string, any) bool { t.Fatal("nil cache scanned"); return false })
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
}

func TestCacheResolution(t *testing.T) {
	bound := New(0, 0)
	if got := FromContext(WithCache(context.Background(), bound)); got != bound {
		t.Fatal("FromContext did not return the bound cache")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on bare ctx = %v", got)
	}
	if got := FromContext(nil); got != nil {
		t.Fatalf("FromContext(nil) = %v", got)
	}
}

// TestCacheConcurrentChurn hammers one small cache from many
// goroutines mixing every operation; run under -race (the Makefile's
// race target does) it proves the locking discipline, and the final
// invariant check proves byte accounting survives concurrent
// eviction.
func TestCacheConcurrentChurn(t *testing.T) {
	c, _ := newTestCache(512, time.Minute)
	const workers = 8
	const opsPer = 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("k%d", (w*opsPer+i)%13)
				switch i % 5 {
				case 0, 1:
					c.Put(key, i, int64(32+i%64), "churn")
				case 2:
					c.Get(key)
				case 3:
					c.scanTag("churn", 4, func(string, any) bool { return true })
				case 4:
					if i%17 == 0 {
						c.Drop(key)
					} else {
						c.Stats()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes < 0 || st.Bytes > 512 {
		t.Fatalf("byte accounting broken after churn: %+v", st)
	}
	if st.Entries != c.Len() {
		t.Fatalf("entries mismatch: stats %d vs Len %d", st.Entries, c.Len())
	}
	// Recompute bytes from a full scan and compare with the account.
	var total int64
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		total += el.Value.(*entry).bytes
	}
	c.mu.Unlock()
	if total != st.Bytes {
		t.Fatalf("accounted bytes %d != summed bytes %d", st.Bytes, total)
	}
}
