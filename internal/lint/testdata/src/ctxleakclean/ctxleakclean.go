// Package ctxleakclean seeds the sanctioned cancel-func patterns the
// ctxleak rule must accept: defer, per-path calls, storage handoff,
// capture by a function literal, and a rebinding after the first
// cancel was called — the case a purely syntactic rule would flag.
package ctxleakclean

import (
	"context"
	"time"
)

// Deferred is the canonical pattern.
func Deferred() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return work(ctx)
}

// AllPaths calls cancel on each exit explicitly.
func AllPaths(fail bool) error {
	ctx, cancel := context.WithCancel(context.Background())
	if fail {
		cancel()
		return context.Canceled
	}
	err := work(ctx)
	cancel()
	return err
}

// Stopper owns a stored cancel; storing it is a handoff that ends
// intraprocedural tracking.
type Stopper struct {
	cancel context.CancelFunc
}

// Handoff stores the cancel for a later shutdown.
func Handoff() (*Stopper, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	return &Stopper{cancel: cancel}, ctx
}

// Captured hands the cancel to a deferred function literal.
func Captured() error {
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel() }()
	return work(ctx)
}

// Rebind cancels the first context before the variable is reused.
func Rebind() error {
	ctx, cancel := context.WithCancel(context.Background())
	if err := work(ctx); err != nil {
		cancel()
		return err
	}
	cancel()
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return work(ctx)
}

func work(ctx context.Context) error { return ctx.Err() }
