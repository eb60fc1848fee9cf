package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Checkpoint blobs: the (possibly megabytes-large) solver state of an
// in-flight job is stored beside the log under <dir>/checkpoints/, one
// file per key, written atomically (temp file + rename + fsync) so a
// crash mid-save leaves either the previous blob or none — never a
// half-written one. The log never names a blob: the serving layer
// derives the key from the journaled request. The blob payload is
// opaque bytes (cache.EncodeCheckpoint's binary form), framed with the
// owning key and a CRC so a restart can verify integrity and key
// identity before trusting it.

// blobDir is the subdirectory holding checkpoint blobs.
const blobDir = "checkpoints"

// ErrNoBlob is returned by LoadBlob when no blob exists under the key.
var ErrNoBlob = errors.New("journal: no checkpoint blob")

// errBlobCorrupt is returned by LoadBlob when the stored blob fails
// its CRC or key check — the caller should fall back to a cold solve.
var errBlobCorrupt = errors.New("journal: checkpoint blob corrupt")

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

// LoadBlob reads and verifies the blob stored under key. Missing blobs
// return ErrNoBlob; CRC or key mismatches return errBlobCorrupt.
func (j *Journal) LoadBlob(key string) ([]byte, error) {
	raw, err := os.ReadFile(j.blobPath(key))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoBlob, key)
		}
		return nil, fmt.Errorf("journal: read blob: %w", err)
	}
	if len(raw) < frameHeader {
		return nil, fmt.Errorf("%w: short frame", errBlobCorrupt)
	}
	length := binary.BigEndian.Uint32(raw[0:4])
	want := binary.BigEndian.Uint32(raw[4:8])
	if int(length) != len(raw)-frameHeader {
		return nil, fmt.Errorf("%w: length mismatch", errBlobCorrupt)
	}
	body := raw[frameHeader:]
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: crc mismatch", errBlobCorrupt)
	}
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: missing key header", errBlobCorrupt)
	}
	keyLen := binary.BigEndian.Uint32(body[0:4])
	if int(keyLen) > len(body)-4 {
		return nil, fmt.Errorf("%w: key length out of range", errBlobCorrupt)
	}
	if string(body[4:4+keyLen]) != key {
		return nil, fmt.Errorf("%w: key mismatch (hash collision or tampering)", errBlobCorrupt)
	}
	return body[4+keyLen:], nil
}

// DropBlob removes the blob stored under key (no-op when absent).
func (j *Journal) DropBlob(key string) error {
	if err := os.Remove(j.blobPath(key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: drop blob: %w", err)
	}
	return nil
}
