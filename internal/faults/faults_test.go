package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNewWithoutRulesDisables(t *testing.T) {
	if in := New(); in != nil {
		t.Errorf("New() = %v; want nil, the injector that never fires", in)
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if f := in.Fire(SitePCG, "numerical.amg"); f != nil {
		t.Fatalf("nil injector fired %+v", f)
	}
}

func TestFireMatchesSiteAndLabel(t *testing.T) {
	in := New(Rule{Site: SitePCG, Action: ActBreakdown, Label: "numerical.amg"})
	if f := in.Fire(SiteAMGSetup, ""); f != nil {
		t.Fatalf("wrong site fired %+v", f)
	}
	if f := in.Fire(SitePCG, "golden"); f != nil {
		t.Fatalf("wrong label fired %+v", f)
	}
	f := in.Fire(SitePCG, "numerical.amg")
	if f == nil || f.Action != ActBreakdown || f.Label != "numerical.amg" {
		t.Fatalf("expected breakdown fault, got %+v", f)
	}
}

func TestTimesAndAfterModifiers(t *testing.T) {
	in := New(Rule{Site: SiteAMGSetup, Action: ActFail, After: 1, Times: 2})
	var fires []bool
	for i := 0; i < 5; i++ {
		fires = append(fires, in.Fire(SiteAMGSetup, "") != nil)
	}
	want := []bool{false, true, true, false, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("arrival %d: fired=%v, want %v (all: %v)", i, fires[i], want[i], fires)
		}
	}
}

func TestSleepLatencyAndStall(t *testing.T) {
	f := &Fault{Action: ActLatency, Delay: 5 * time.Millisecond}
	start := time.Now()
	if err := f.Sleep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("latency slept only %v", d)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	stall := &Fault{Action: ActStall}
	if err := stall.Sleep(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall returned %v, want deadline exceeded", err)
	}

	var none *Fault
	if err := none.Sleep(context.Background()); err != nil {
		t.Fatalf("nil fault Sleep: %v", err)
	}
}

func TestContextResolution(t *testing.T) {
	t.Cleanup(func() { SetActive(nil) })
	SetActive(nil)

	if got := ActiveOr(context.Background()); got != nil {
		t.Fatalf("ActiveOr with nothing installed = %v", got)
	}
	global := New(Rule{Site: SiteServeWorker, Action: ActPanic})
	SetActive(global)
	if got := ActiveOr(context.Background()); got != global {
		t.Fatalf("ActiveOr did not fall back to global")
	}
	bound := New(Rule{Site: SiteAMGSetup, Action: ActFail})
	ctx := WithInjector(context.Background(), bound)
	if got := ActiveOr(ctx); got != bound {
		t.Fatalf("ActiveOr did not prefer the context-bound injector")
	}
	if got := ActiveOr(nil); got != global {
		t.Fatalf("ActiveOr(nil) = %v, want the global", got)
	}
}

func TestConcurrentFireIsSafe(t *testing.T) {
	in := New(
		Rule{Site: SitePCG, Action: ActNaN, After: 3},
		Rule{Site: SiteAMGSetup, Action: ActLatency, Delay: time.Millisecond, Times: 3},
	)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				in.Fire(SitePCG, "numerical.amg")
				in.Fire(SiteAMGSetup, "")
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
