package cache

import (
	"encoding/binary"
	"fmt"
	"math"

	"irfusion/internal/solver"
)

// Checkpoint encoding: the layout of the mid-solve snapshots an older
// release kept. No solve takes or restores one any more; these names
// stay, bytes unchanged, only because the frozen _bench/layers.go
// encodes one snapshot to time a journal blob save. They go with
// ROADMAP item 1(b).
//
//	"IRCK" 0x01 | fingerprint | shape | u64 N
//	| X | u64 iter | f64 residual | historyTail
//	| f64 tol | u64 maxIter | u8 flexible | label | "auto" | "full"
//
// where strings are u64 length + bytes and float slices are u64
// element count + IEEE 754 bits, all little-endian.
var ckptMagic = []byte{'I', 'R', 'C', 'K', 1}

// ckptReservedFormat and ckptReserved fill the last two string slots
// of layout version 1 (once the storage format and the precision).
const (
	ckptReservedFormat = "auto"
	ckptReserved       = "full"
)

// CheckpointArtifact is one solver snapshot plus the identity an older
// release matched it by.
type CheckpointArtifact struct {
	Fingerprint string // design fingerprint the solve belongs to
	Shape       string // request shape (see CheckpointShape)
	N           int    // iterate length (reduced system dimension)
	State       solver.Checkpoint
}

// CheckpointKey is the key of the checkpoint for fingerprint fp under
// request shape.
func CheckpointKey(fp, shape string) string { return "ckpt|" + fp + "|" + shape }

// CheckpointShape canonicalizes the request fields a checkpoint was
// keyed by: the preconditioner family and the iteration budget. The
// constant "prec=full" and "fmt=auto" segments and the two ignored
// parameters keep the key and the call of _bench/layers.go as they were.
func CheckpointShape(precond, _, _ string, iters int) string {
	if precond == "" {
		precond = "amg"
	}
	return fmt.Sprintf("precond=%s,prec=full,fmt=auto,iters=%d", precond, iters)
}

// EncodeCheckpoint serializes art for durable storage.
func EncodeCheckpoint(art *CheckpointArtifact) ([]byte, error) {
	if art == nil {
		return nil, fmt.Errorf("cache: encode checkpoint: nil artifact")
	}
	st := &art.State
	size := len(ckptMagic) + 8*8 + 1 + // fixed fields, lengths folded below
		len(art.Fingerprint) + len(art.Shape) + len(st.Label) + len(ckptReservedFormat) + len(ckptReserved) +
		8*(len(st.X)+len(st.HistoryTail)) + 6*8
	buf := make([]byte, 0, size)
	buf = append(buf, ckptMagic...)
	buf = appendString(buf, art.Fingerprint)
	buf = appendString(buf, art.Shape)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(art.N))
	buf = appendFloats(buf, st.X)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Iter))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Residual))
	buf = appendFloats(buf, st.HistoryTail)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Tol))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.MaxIter))
	if st.Flexible {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, st.Label)
	buf = appendString(buf, ckptReservedFormat)
	buf = appendString(buf, ckptReserved)
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloats(buf []byte, v []float64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v)))
	for _, f := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	return buf
}
