package cache

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"irfusion/internal/solver"
)

// TestCheckpointShapeDefaults: an empty preconditioner canonicalizes
// to the documented default, the budget qualifies the shape, and the
// retired precision and format arguments select nothing — every
// spelling yields the key of the blobs already on disk.
func TestCheckpointShapeDefaults(t *testing.T) {
	const onDisk = "precond=amg,prec=full,fmt=auto,iters=0"
	for _, precond := range []string{"", "amg"} {
		for _, format := range []string{"", "auto", "csr", "anything"} {
			if got := CheckpointShape(precond, "mixed", format, 0); got != onDisk {
				t.Errorf("shape(%q, format %q) is %q; blobs on disk are keyed %q", precond, format, got, onDisk)
			}
		}
	}
	if CheckpointShape("amg", "", "", 0) == CheckpointShape("amg", "", "", 7) {
		t.Error("iteration budget does not qualify the shape")
	}
	if CheckpointShape("amg", "", "", 0) == CheckpointShape("ssor", "", "", 0) {
		t.Error("preconditioner does not qualify the shape")
	}
}

// TestCheckpointEncodeLayout pins EncodeCheckpoint's bytes to the
// layout the blobs on disk carry: the digest was recorded before the
// decoder went, so a blob save the benchmark times is the one it
// always timed.
func TestCheckpointEncodeLayout(t *testing.T) {
	data, err := EncodeCheckpoint(&CheckpointArtifact{
		Fingerprint: "fp-enc",
		Shape:       CheckpointShape("amg", "", "", 0),
		N:           4,
		State: solver.Checkpoint{
			X:           []float64{1, 2, 3, 4},
			Iter:        32,
			Residual:    1e-4,
			HistoryTail: []float64{1e-2, 1e-3, 1e-4},
			Tol:         1e-8,
			MaxIter:     500,
			Label:       "numerical.amg",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "fd36a408d75b03538a59e3b1ea820c5ccba5f25ad066737cee312f6c9ec2cc5a"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != 223 || got != want {
		t.Fatalf("encoding is %d bytes with SHA-256 %s; the layout on disk is 223 bytes with %s", len(data), got, want)
	}
	if _, err := EncodeCheckpoint(nil); err == nil {
		t.Error("nil artifact encoded without error")
	}
}
