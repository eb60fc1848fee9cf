// Package ctxleakfix seeds the one ctxleak violation: the cancel
// overwritten by a second WithX call (the serve bug shape). A cancel
// dropped on a path or discarded at the binding is go vet's lostcancel
// finding, not this rule's.
package ctxleakfix

import (
	"context"
	"time"
)

// Overwrite abandons the WithCancel context when a timeout replaces
// it; the deferred cancel only covers the second context.
func Overwrite(timeout time.Duration) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	}
	defer cancel()
	return ctx
}
