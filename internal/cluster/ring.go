package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// vnodesPerShard is the number of virtual nodes each shard contributes
// to the ring. 64 points per shard keeps the key-space split within a
// few percent of even for small fleets while the ring stays tiny
// (N×64 points, binary-searched per request).
const vnodesPerShard = 64

// ring is a consistent-hash ring over named shards. Keys and shard
// positions hash through SHA-256, so placement is deterministic across
// processes, platforms, and releases — a pinned (deck, ring) pair maps
// to a pinned shard forever, which the routing-stability regression
// test relies on. The ring is immutable after New; membership changes
// are handled by breaker state at the gateway, not by ring mutation,
// so routing stays stable while a shard is merely unhealthy.
type ring struct {
	points []ringPoint
	shards []string
}

type ringPoint struct {
	hash  uint64
	shard int // index into shards
}

// newRing places each shard at vnodesPerShard positions. Shard names
// must be unique; order does not matter — placement depends only on the
// name strings.
func newRing(shards []string) *ring {
	r := &ring{
		shards: append([]string(nil), shards...),
		points: make([]ringPoint, 0, len(shards)*vnodesPerShard),
	}
	for i, name := range r.shards {
		for v := 0; v < vnodesPerShard; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashPoint(name + "#" + strconv.Itoa(v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// hashPoint maps a string to a ring position: the first 8 bytes of its
// SHA-256, big-endian. FNV would be cheaper, but routing runs once per
// request (not per iteration) and SHA-256 keeps the whole fingerprint
// family on one primitive.
func hashPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Shard returns the owner of key: the shard whose ring point is the
// first at or clockwise of the key's hash. Empty ring returns "".
func (r *ring) Shard(key string) string {
	succ := r.successors(key)
	if len(succ) == 0 {
		return ""
	}
	return succ[0]
}

// successors returns every shard in ring order starting at key's
// owner, deduplicated — the gateway's failover order. The first entry
// is the primary; each later entry is the next distinct shard
// clockwise, so handoff after a shard failure walks this list.
func (r *ring) successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashPoint(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, len(r.shards))
	out := make([]string, 0, len(r.shards))
	for i := 0; i < len(r.points) && len(out) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, r.shards[p.shard])
		}
	}
	return out
}
