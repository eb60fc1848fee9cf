// Package hooksafefix seeds a hooksafe violation: hand-rolled hook
// construction.
package hooksafefix

import "irfusion/internal/obs"

// makeRecorder builds a Recorder by hand instead of the constructor.
func makeRecorder() *obs.Recorder {
	r := obs.Recorder{}
	return &r
}

var _ = makeRecorder
