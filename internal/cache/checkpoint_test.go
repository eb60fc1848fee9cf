package cache

import (
	"bytes"
	"context"
	"os"
	"testing"

	"irfusion/internal/faults"
	"irfusion/internal/solver"
)

func testCheckpointArtifact(fp string) *CheckpointArtifact {
	return &CheckpointArtifact{
		Fingerprint: fp,
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
	}
}

// TestCheckpointStoreLookupDrop: the store/lookup/drop lifecycle under
// fingerprint⊕shape keys, including shape isolation (a different
// request shape must not see the checkpoint).
func TestCheckpointStoreLookupDrop(t *testing.T) {
	c := New(0, 0)
	ctx := context.Background()
	art := testCheckpointArtifact("fp-1")
	StoreCheckpoint(ctx, c, art)

	got := LookupCheckpoint(ctx, c, "fp-1", art.Shape)
	if got == nil || got.State.Iter != 32 || len(got.State.X) != 4 {
		t.Fatalf("lookup: %+v", got)
	}
	if LookupCheckpoint(ctx, c, "fp-other", art.Shape) != nil {
		t.Error("foreign fingerprint found the checkpoint")
	}
	otherShape := CheckpointShape("ssor", "", "auto", 0)
	if LookupCheckpoint(ctx, c, "fp-1", otherShape) != nil {
		t.Error("foreign request shape found the checkpoint")
	}

	DropCheckpoint(c, "fp-1", art.Shape)
	if LookupCheckpoint(ctx, c, "fp-1", art.Shape) != nil {
		t.Error("checkpoint survived DropCheckpoint")
	}
	// Nil-safety of every helper.
	StoreCheckpoint(ctx, nil, art)
	DropCheckpoint(nil, "fp-1", art.Shape)
	if LookupCheckpoint(ctx, nil, "fp-1", art.Shape) != nil {
		t.Error("nil cache produced a checkpoint")
	}
}

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

// TestCheckpointFaults: checkpoint.save:fail drops the store
// silently; checkpoint.restore:fail hides the entry;
// checkpoint.restore:corrupt returns a poisoned copy without touching
// the cached original.
func TestCheckpointFaults(t *testing.T) {
	art := testCheckpointArtifact("fp-f")

	c := New(0, 0)
	ctx := faults.WithInjector(context.Background(), faults.New(faults.Rule{Site: faults.SiteCheckpointSave, Action: faults.ActFail}))
	StoreCheckpoint(ctx, c, art)
	if c.Len() != 0 {
		t.Fatal("ActFail store still cached the checkpoint")
	}

	c = New(0, 0)
	StoreCheckpoint(context.Background(), c, art)
	ctx = faults.WithInjector(context.Background(), faults.New(faults.Rule{Site: faults.SiteCheckpointRestore, Action: faults.ActFail}))
	if LookupCheckpoint(ctx, c, "fp-f", art.Shape) != nil {
		t.Error("ActFail lookup still returned the checkpoint")
	}

	ctx = faults.WithInjector(context.Background(), faults.New(faults.Rule{Site: faults.SiteCheckpointRestore, Action: faults.ActCorrupt}))
	bad := LookupCheckpoint(ctx, c, "fp-f", art.Shape)
	if bad == nil {
		t.Fatal("ActCorrupt lookup returned nothing")
	}
	poisoned := false
	for i := range bad.State.X {
		if bad.State.X[i] != art.State.X[i] { //irfusion:exact poisoning must have moved at least one coordinate
			poisoned = true
		}
	}
	if !poisoned {
		t.Error("ActCorrupt returned an unpoisoned iterate")
	}
	clean := LookupCheckpoint(context.Background(), c, "fp-f", art.Shape)
	for i := range clean.State.X {
		if clean.State.X[i] != art.State.X[i] { //irfusion:exact the cached original must be untouched by the poisoned copy
			t.Fatal("poisoning mutated the cached artifact")
		}
	}
}

// TestCheckpointEncodeDecode: the binary round trip used by the durable
// blob path preserves every field, and the layout is the one already
// on disk — a blob the PR 18 binary wrote decodes and re-encodes to the
// same bytes.
func TestCheckpointEncodeDecode(t *testing.T) {
	art := testCheckpointArtifact("fp-enc")
	data, err := EncodeCheckpoint(art)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != art.Fingerprint || back.Shape != art.Shape || back.N != art.N {
		t.Fatalf("identity lost: %+v", back)
	}
	if back.State.Iter != art.State.Iter || back.State.Residual != art.State.Residual { //irfusion:exact gob must reproduce the snapshot bits
		t.Fatalf("state lost: %+v", back.State)
	}
	for i := range art.State.X {
		if back.State.X[i] != art.State.X[i] { //irfusion:exact gob must reproduce the snapshot bits
			t.Fatalf("iterate lost at %d", i)
		}
	}
	if _, err := DecodeCheckpoint([]byte("junk")); err == nil {
		t.Error("junk decoded without error")
	}

	old, err := os.ReadFile("testdata/checkpoint_pr18.bin")
	if err != nil {
		t.Fatal(err)
	}
	back, err = DecodeCheckpoint(old)
	if err != nil {
		t.Fatalf("blob written by the previous release: %v", err)
	}
	if back.State.Iter != 12 || back.N != len(back.State.X) || back.Shape != CheckpointShape("amg", "", "", 0) {
		t.Fatalf("previous release's blob decoded to iter %d, N %d, %d values, shape %q",
			back.State.Iter, back.N, len(back.State.X), back.Shape)
	}
	if again, _ := EncodeCheckpoint(back); !bytes.Equal(again, old) {
		t.Error("re-encoding the previous release's blob changed its bytes")
	}
}

// TestCheckpointWriterNotify: the solver-facing sink stores into the
// cache and forwards the encoded artifact (with its key) to the
// durable-persistence hook.
func TestCheckpointWriterNotify(t *testing.T) {
	c := New(0, 0)
	var gotKey string
	var gotBytes []byte
	w := &CheckpointWriter{
		Cache:       c,
		Fingerprint: "fp-w",
		Shape:       CheckpointShape("amg", "full", "auto", 0),
		Notify:      func(key string, encoded []byte) { gotKey, gotBytes = key, encoded },
	}
	w.SaveCheckpoint(testCheckpointArtifact("ignored").State)

	if got := LookupCheckpoint(context.Background(), c, "fp-w", w.Shape); got == nil {
		t.Fatal("sink did not store into the cache")
	}
	if gotKey != CheckpointKey("fp-w", w.Shape) {
		t.Errorf("notify key %q", gotKey)
	}
	back, err := DecodeCheckpoint(gotBytes)
	if err != nil {
		t.Fatalf("notify payload does not decode: %v", err)
	}
	if back.Fingerprint != "fp-w" || back.State.Iter != 32 {
		t.Errorf("notify payload %+v", back)
	}
	// A writer without a fingerprint is inert (budgeted solves).
	inert := &CheckpointWriter{Cache: c}
	inert.SaveCheckpoint(solver.Checkpoint{X: []float64{1}})
}
