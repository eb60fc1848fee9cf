package cluster

import (
	"fmt"
	"testing"

	"irfusion/internal/pgen"
	"irfusion/internal/serve"
)

// TestRingDeterminism pins that placement depends only on the shard
// name strings — never on construction order or process state.
func TestRingDeterminism(t *testing.T) {
	a := newRing([]string{"s0", "s1", "s2"})
	b := newRing([]string{"s2", "s0", "s1"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Shard(key) != b.Shard(key) {
			t.Fatalf("key %q: placement depends on construction order", key)
		}
	}
}

// TestRingSuccessors checks the failover order: every shard exactly
// once, primary first.
func TestRingSuccessors(t *testing.T) {
	r := newRing([]string{"s0", "s1", "s2"})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		succ := r.successors(key)
		if len(succ) != 3 {
			t.Fatalf("key %q: %d successors, want 3", key, len(succ))
		}
		if succ[0] != r.Shard(key) {
			t.Fatalf("key %q: first successor %q != owner %q", key, succ[0], r.Shard(key))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("key %q: duplicate successor %q", key, s)
			}
			seen[s] = true
		}
	}
	if newRing(nil).Shard("x") != "" {
		t.Fatal("empty ring must return no owner")
	}
}

// TestRingBalanceAndRemap checks the two consistent-hashing virtues:
// keys spread across shards within a sane band, and growing the fleet
// by one shard moves only a minority of keys (ideally ~1/N).
func TestRingBalanceAndRemap(t *testing.T) {
	const keys = 2000
	three := newRing([]string{"s0", "s1", "s2"})
	four := newRing([]string{"s0", "s1", "s2", "s3"})
	counts := map[string]int{}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("design-%d", i)
		owner := three.Shard(key)
		counts[owner]++
		next := four.Shard(key)
		if next != owner {
			if next != "s3" {
				t.Fatalf("key %q moved %s → %s: growth must only move keys to the new shard", key, owner, next)
			}
			moved++
		}
	}
	for shard, n := range counts {
		frac := float64(n) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("shard %s owns %.0f%% of keys — ring is badly unbalanced", shard, 100*frac)
		}
	}
	movedFrac := float64(moved) / keys
	if movedFrac == 0 || movedFrac > 0.5 {
		t.Fatalf("adding one shard moved %.0f%% of keys (want ~25%%, certainly <50%%)", 100*movedFrac)
	}
}

// TestRoutingStabilityPinned is the routing-stability regression of
// the satellite checklist: a pinned deck on a pinned ring must map to
// a pinned shard forever. The expected values are frozen literals; if
// this test fails, a hash, canonicalizer, or ring change silently
// reshuffled every deployed fleet's cache affinity and needs a
// deliberate migration story, not a baseline bump.
func TestRoutingStabilityPinned(t *testing.T) {
	r := newRing([]string{"shard0", "shard1", "shard2"})

	// Pinned generator request: class fake, 16×16, seed 1.
	pgKey, err := routingKey(&serve.AnalyzeRequest{
		Pgen: &pgen.Config{Class: pgen.Fake, W: 16, H: 16, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "480d1043ea9bdbe6d54ba718af3de7a8bce305be6842bf12efbdf0b0f13ebdfd"; pgKey != want {
		t.Errorf("pgen routing key drifted: %s", pgKey)
	}
	if got := r.Shard(pgKey); got != "shard2" {
		t.Errorf("pinned pgen deck moved to %q (want shard2)", got)
	}

	// Pinned SPICE deck: the generated real-class 24×24 seed-17 design,
	// round-tripped through deck text like a real client submission.
	d, err := pgen.Generate(pgen.DefaultConfig("pin", pgen.Real, 24, 24, 17))
	if err != nil {
		t.Fatal(err)
	}
	spKey, err := routingKey(&serve.AnalyzeRequest{Spice: d.Netlist.String()})
	if err != nil {
		t.Fatal(err)
	}
	if want := "9fba19c71aeac1dd110898e0e118bed07aae20ce8a7001aca3f201d8d322797b"; spKey != want {
		t.Errorf("spice routing key drifted: %s", spKey)
	}
	if got := r.Shard(spKey); got != "shard0" {
		t.Errorf("pinned spice deck moved to %q (want shard0)", got)
	}

	// Its ECO neighbor must share key and shard — the cache-affinity
	// invariant the gateway exists for.
	eco := pgen.Perturb(d, 0.005, 3)
	ecoKey, err := routingKey(&serve.AnalyzeRequest{Spice: eco.Netlist.String()})
	if err != nil {
		t.Fatal(err)
	}
	if ecoKey != spKey {
		t.Error("ECO neighbor routed on a different key than its baseline")
	}
}
