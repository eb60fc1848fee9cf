package core

import (
	"context"
	"testing"

	"irfusion/internal/cache"
	"irfusion/internal/faults"
	"irfusion/internal/obs"
	"irfusion/internal/plan"
)

// TestAnalyzeResumeMatchesCold is the tentpole correctness check of
// solver checkpoint/resume: a solve that "crashes" mid-flight (we keep
// only its last durable checkpoint, as a restart would) must, when
// re-run against a fresh cache seeded with that checkpoint, resume via
// plan.RungAMGResume and produce a map matching a cold solve to GuardTol.
func TestAnalyzeResumeMatchesCold(t *testing.T) {
	d := cacheTestDesign(t)
	cold, _ := analyzeWithCache(t, nil, d)

	// First run: checkpoint every 2 iterations, capturing the durable
	// blobs the serving layer would journal.
	var lastKey string
	var lastBlob []byte
	c1 := cache.New(0, 0)
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	ctx = cache.WithCache(ctx, c1)
	na := &NumericalAnalyzer{Resolution: 24, CheckpointEvery: 2,
		OnCheckpoint: func(key string, encoded []byte) { lastKey, lastBlob = key, encoded }}
	if _, _, _, err := na.AnalyzeCtx(ctx, d); err != nil {
		t.Fatal(err)
	}
	if lastKey == "" || len(lastBlob) == 0 {
		t.Fatal("no checkpoint was persisted during the solve")
	}
	// A finished solve must not leave its snapshot shadowing the cache.
	fp := cache.DesignFingerprint(d)
	shape := cache.CheckpointShape("", "", "", 0)
	if cache.LookupCheckpoint(context.Background(), c1, fp, shape) != nil {
		t.Fatal("converged solve left its checkpoint in the cache")
	}

	// "Restart": a fresh cache holding only the reloaded checkpoint —
	// exactly what serve's recovery path reconstructs from the journal.
	art, err := cache.DecodeCheckpoint(lastBlob)
	if err != nil {
		t.Fatal(err)
	}
	if art.State.Iter <= 0 {
		t.Fatalf("checkpoint carries iteration %d", art.State.Iter)
	}
	c2 := cache.New(0, 0)
	cache.StoreCheckpoint(context.Background(), c2, art)

	rec2 := obs.NewRecorder()
	ctx2 := obs.WithRecorder(context.Background(), rec2)
	ctx2 = cache.WithCache(ctx2, c2)
	na2 := &NumericalAnalyzer{Resolution: 24}
	m, _, _, err := na2.AnalyzeCtx(ctx2, d)
	if err != nil {
		t.Fatal(err)
	}
	mf := rec2.Manifest("test", nil)
	if mf.Resume == nil {
		t.Fatal("resumed run recorded no resume section")
	}
	if mf.Resume.Outcome != obs.ResumeAccepted || mf.Resume.Iter != art.State.Iter {
		t.Fatalf("resume section %+v, want outcome %q at iteration %d",
			mf.Resume, obs.ResumeAccepted, art.State.Iter)
	}
	if err := mf.Validate(); err != nil {
		t.Fatalf("resumed manifest invalid: %v", err)
	}
	// The resumed solve ran under its own rung label.
	sawResume := false
	for _, s := range mf.Solves {
		if s.Label == plan.RungAMGResume {
			sawResume = true
		}
	}
	if !sawResume {
		t.Fatalf("no solve labeled %s in %+v", plan.RungAMGResume, mf.Solves)
	}
	if diff := mapMaxDiff(cold, m); diff > cache.GuardTol {
		t.Fatalf("resumed map differs from cold map by %g (tol %g)", diff, cache.GuardTol)
	}
}

// TestAnalyzeResumeGuardRejectsCorrupt: a poisoned checkpoint (via the
// checkpoint.restore:corrupt fault) must be rejected by the residual
// guard, dropped, and the ladder must fall through to the cold AMG
// rung — with a degradation trail proving the fallback and a resume
// section recording the rejection. The answer must still match cold.
func TestAnalyzeResumeGuardRejectsCorrupt(t *testing.T) {
	d := cacheTestDesign(t)
	cold, _ := analyzeWithCache(t, nil, d)

	// Capture a real checkpoint, then seed a fresh cache with it.
	var lastBlob []byte
	c1 := cache.New(0, 0)
	ctx := cache.WithCache(context.Background(), c1)
	na := &NumericalAnalyzer{Resolution: 24, CheckpointEvery: 2,
		OnCheckpoint: func(_ string, encoded []byte) { lastBlob = encoded }}
	if _, _, _, err := na.AnalyzeCtx(ctx, d); err != nil {
		t.Fatal(err)
	}
	art, err := cache.DecodeCheckpoint(lastBlob)
	if err != nil {
		t.Fatal(err)
	}
	c2 := cache.New(0, 0)
	cache.StoreCheckpoint(context.Background(), c2, art)

	rec := obs.NewRecorder()
	ctx2 := obs.WithRecorder(context.Background(), rec)
	ctx2 = cache.WithCache(ctx2, c2)
	ctx2 = faults.WithInjector(ctx2, faults.New(faults.Rule{Site: faults.SiteCheckpointRestore, Action: faults.ActCorrupt, Times: 1}))
	na2 := &NumericalAnalyzer{Resolution: 24}
	m, _, _, err := na2.AnalyzeCtx(ctx2, d)
	if err != nil {
		t.Fatal(err)
	}
	mf := rec.Manifest("test", nil)
	if mf.Resume == nil || mf.Resume.Outcome != obs.ResumeRejected {
		t.Fatalf("resume section %+v, want outcome %q", mf.Resume, obs.ResumeRejected)
	}
	if err := mf.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	// The ladder must show the resume rung failing and a cold rung
	// serving.
	if len(mf.Degradations) != 1 {
		t.Fatalf("degradations: %+v", mf.Degradations)
	}
	deg := mf.Degradations[0]
	if deg.Attempts[0].Rung != plan.RungAMGResume || deg.Attempts[0].Error == "" {
		t.Fatalf("first attempt %+v, want a failed %s", deg.Attempts[0], plan.RungAMGResume)
	}
	if deg.Rung != plan.RungAMG || !deg.Degraded() {
		t.Fatalf("served by %q (degraded %v), want cold %s", deg.Rung, deg.Degraded(), plan.RungAMG)
	}
	// The poisoned snapshot must have been dropped on rejection.
	fp := cache.DesignFingerprint(d)
	shape := cache.CheckpointShape("", "", "", 0)
	if cache.LookupCheckpoint(context.Background(), c2, fp, shape) != nil {
		t.Error("rejected checkpoint still cached")
	}
	if diff := mapMaxDiff(cold, m); diff > cache.GuardTol {
		t.Fatalf("post-rejection map differs from cold by %g", diff)
	}
}

// TestAnalyzeBudgetedSolvesNeverCheckpoint pins the scoping rule:
// checkpointing rides the converged cached path only — a budgeted
// (Iters > 0) analysis computes no fingerprint and must not install a
// sink even when CheckpointEvery is set.
func TestAnalyzeBudgetedSolvesNeverCheckpoint(t *testing.T) {
	d := cacheTestDesign(t)
	c := cache.New(0, 0)
	ctx := cache.WithCache(context.Background(), c)
	called := false
	na := &NumericalAnalyzer{Iters: 5, Resolution: 24, Precond: "ssor", CheckpointEvery: 1,
		OnCheckpoint: func(string, []byte) { called = true }}
	if _, _, _, err := na.AnalyzeCtx(ctx, d); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("budgeted solve persisted a checkpoint")
	}
	if c.Len() != 0 {
		t.Errorf("budgeted solve stored %d artifact(s)", c.Len())
	}
}
