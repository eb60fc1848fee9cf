// Package hooksafefix seeds hooksafe violations: the global Active()
// read inside a context-holding function, and hand-rolled hook
// construction.
package hooksafefix

import (
	"context"

	"irfusion/internal/faults"
	"irfusion/internal/obs"
)

// Inject resolves its injector the forbidden way.
func Inject(ctx context.Context) int64 {
	if g := faults.Active(); g != nil {
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
