package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Checkpoint blobs: one file per key under <dir>/checkpoints/,
// written atomically (temp file + rename + fsync) so a crash mid-save
// leaves either the previous blob or none. Nothing reads them: no
// solve resumes from a snapshot any more, and a checkpoints/ directory
// an older release left is inert. SaveBlob stays, bytes unchanged,
// only because the frozen _bench/layers.go times one save; it goes
// with ROADMAP item 1(b).

// blobDir is the subdirectory holding checkpoint blobs.
const blobDir = "checkpoints"

// blobPath maps a checkpoint key (free-form text) onto a filename via
// FNV-1a, with the key itself stored inside the blob for verification.
func (j *Journal) blobPath(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(j.dir, blobDir, fmt.Sprintf("%016x.ckpt", h.Sum64()))
}

// SaveBlob durably stores data under key, replacing any previous blob.
// Layout: [4B keyLen][key][data], wrapped as [4B totalLen][4B CRC][body].
func (j *Journal) SaveBlob(key string, data []byte) error {
	if key == "" {
		return errors.New("journal: empty blob key")
	}
	dir := filepath.Join(j.dir, blobDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal: create blob dir: %w", err)
	}
	body := make([]byte, 4+len(key)+len(data))
	binary.BigEndian.PutUint32(body[0:4], uint32(len(key)))
	copy(body[4:], key)
	copy(body[4+len(key):], data)
	frame := encodeFrame(body)

	tmp, err := os.CreateTemp(dir, "blob-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: blob temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("journal: write blob: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("journal: fsync blob: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: close blob: %w", err)
	}
	if err := os.Rename(tmpName, j.blobPath(key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: publish blob: %w", err)
	}
	return nil
}
