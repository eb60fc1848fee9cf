package cache

import (
	"context"
	"strconv"

	"irfusion/internal/amg"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/sparse"
)

// GuardTol is the relative residual at which a reused iterate counts
// as a solution of the freshly assembled system: the agreement every
// reuse path is tested to against a cold solve. Golden solves converge to 1e-10,
// two orders of margin below it.
const GuardTol = 1e-8

// DefaultWarmDelta is the matrix-delta fraction below which a cached
// neighbor qualifies as a warm-start donor: at most 2% of conductance
// entries may differ, the regime of an ECO strap edit.
const DefaultWarmDelta = 0.02

// warmScanLimit bounds how many same-shape candidates a neighbor
// search will delta-check; each check is an O(nnz) merge walk.
const warmScanLimit = 8

// SystemArtifact caches the reusable numerical products of one
// design's analysis: the assembled system, its converged ("golden")
// solution, and the AMG hierarchy built against exactly this matrix —
// together a warm-start donor (StoreSystem keeps nothing less). All
// fields are treated as immutable once stored; consumers copy Golden
// before solving on it and never use Hier directly (always
// Hierarchy.Clone, which shares setup but not workspace). It holds
// numbers only — G, I, Golden, Hier — never the circuit.Network or a
// node name: those alias the request's deck text (see package spice)
// and would pin it for the entry's lifetime.
type SystemArtifact struct {
	Fingerprint string
	N           int            // reduced system dimension
	G           *sparse.CSR    // conductance matrix
	I           []float64      // current vector (right-hand side)
	Golden      []float64      // converged solution, reduced indexing
	Hier        *amg.Hierarchy // built for exactly G
}

// sizeBytes estimates the artifact's memory footprint for the cache's
// byte accounting: matrix storage, the dense vectors, and the
// hierarchy's operator chain (approximated via operator complexity).
func (a *SystemArtifact) sizeBytes() int64 {
	if a == nil {
		return 0
	}
	var sz int64 = 256 // struct + key overhead
	if a.G != nil {
		sz += int64(a.G.NNZ())*12 + int64(a.G.Rows())*8
	}
	sz += int64(len(a.I)+len(a.Golden)) * 8
	if a.Hier != nil && a.G != nil {
		sz += int64(float64(a.G.NNZ()) * 12 * a.Hier.OperatorComplexity())
	}
	return sz
}

// SystemKey is the cache key of the system artifact for fingerprint
// fp.
func SystemKey(fp string) string { return "sys|" + fp }

// systemTag groups system artifacts of the same reduced dimension, so
// a neighbor search only delta-checks matrices that could possibly be
// close.
func systemTag(n int) string { return "sys|n=" + strconv.Itoa(n) }

// Delta returns the fraction of matrix entries at which a and b
// differ — structurally (an entry stored in one but not the other) or
// numerically — relative to the larger entry count. Matrices of
// different shape are maximally distant (1). Both operands must have
// sorted column indices per row, which every CSR built by this
// repository satisfies.
func Delta(a, b *sparse.CSR) float64 {
	if a == nil || b == nil || a.RowsN != b.RowsN || a.ColsN != b.ColsN {
		return 1
	}
	maxNNZ := a.NNZ()
	if n := b.NNZ(); n > maxNNZ {
		maxNNZ = n
	}
	if maxNNZ == 0 {
		return 0
	}
	diff := 0
	for i := 0; i < a.RowsN; i++ {
		pa, pb := a.RowPtr[i], b.RowPtr[i]
		ea, eb := a.RowPtr[i+1], b.RowPtr[i+1]
		for pa < ea || pb < eb {
			switch {
			case pb >= eb || (pa < ea && a.ColInd[pa] < b.ColInd[pb]):
				diff++
				pa++
			case pa >= ea || b.ColInd[pb] < a.ColInd[pa]:
				diff++
				pb++
			default:
				if a.Val[pa] != b.Val[pb] { //irfusion:exact reassembling an unchanged element stamps the bit-identical value; any difference marks a real edit
					diff++
				}
				pa++
				pb++
			}
		}
	}
	return float64(diff) / float64(maxNNZ)
}

// StoreSystem stores art under its fingerprint key and records a
// store event (attributed to stage) on the context's recorder. An
// artifact without a hierarchy could never donate a warm start, so it
// is refused: it would only take a place in the neighbour search.
func StoreSystem(ctx context.Context, c *Cache, stage string, art *SystemArtifact) {
	if c == nil || art == nil || art.Fingerprint == "" || art.Hier == nil {
		return
	}
	c.Put(SystemKey(art.Fingerprint), art, art.sizeBytes(), systemTag(art.N))
	obs.FromContext(ctx).RecordCacheEvent(obs.CacheEvent{
		Stage: stage, Outcome: obs.CacheStore, Key: ShortKey(art.Fingerprint),
	})
}

// FindWarmStart scans cached artifacts of g's shape for the closest
// neighbor whose matrix delta is at most maxDelta (<= 0 means
// DefaultWarmDelta); a stored design finds itself at delta 0. It
// returns the best donor with its delta, or (nil, 0, nil) when no
// candidate qualifies — the cold path. A cancelled context surfaces as
// the returned error. The faults site cache.lookup fires on the donor
// picked: ActStale returns a copy whose golden solution is poisoned —
// the warm rung must still converge to the cold answer, which core's
// TestAnalyzeCacheStaleGuard verifies.
func FindWarmStart(ctx context.Context, c *Cache, g *sparse.CSR, maxDelta float64) (*SystemArtifact, float64, error) {
	if c == nil || g == nil {
		return nil, 0, nil
	}
	if maxDelta <= 0 {
		maxDelta = DefaultWarmDelta
	}
	// Snapshot candidates under the cache lock, delta-check outside it:
	// the merge walks are O(nnz) each and must not serialize workers.
	var cands []*SystemArtifact
	c.scanTag(systemTag(g.Rows()), warmScanLimit, func(_ string, v any) bool {
		if art, ok := v.(*SystemArtifact); ok {
			cands = append(cands, art)
		}
		return true
	})
	var best *SystemArtifact
	bestDelta := maxDelta
	for _, art := range cands {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		d := Delta(g, art.G)
		if d <= bestDelta {
			best, bestDelta = art, d
		}
	}
	if best == nil {
		return nil, 0, nil
	}
	if f := faults.ActiveOr(ctx).Fire(faults.SiteCacheLookup, ""); f != nil && f.Action == faults.ActStale {
		stale := *best
		stale.Golden = append([]float64(nil), best.Golden...)
		for i := range stale.Golden {
			stale.Golden[i] += 1 + float64(i%3)
		}
		return &stale, bestDelta, nil
	}
	return best, bestDelta, nil
}
