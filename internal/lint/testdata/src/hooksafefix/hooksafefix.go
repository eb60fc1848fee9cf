// Package hooksafefix seeds hooksafe violations: raw FromContext use,
// the global Active() read inside a context-holding function, and
// hand-rolled hook construction.
package hooksafefix

import (
	"context"

	"irfusion/internal/faults"
	"irfusion/internal/obs"
)

// Inject resolves its injector the two forbidden ways.
func Inject(ctx context.Context) int64 {
	r := faults.FromContext(ctx)
	g := faults.Active()
	if r != nil || g != nil {
		return 1
	}
	return 0
}

// makeRecorder builds a Recorder by hand instead of the constructor.
func makeRecorder() *obs.Recorder {
	r := obs.Recorder{}
	return &r
}

var _ = makeRecorder
