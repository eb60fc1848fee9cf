package journal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay throws arbitrary bytes at the replay path as a
// segment file and checks the recovery invariants:
//
//  1. Open never panics and never fails on corruption (only real I/O
//     errors may surface, and a byte-slice segment cannot produce one).
//  2. The clean prefix replays: every record delivered decoded from a
//     CRC-validated frame.
//  3. Truncation is idempotent: after one Open, a second Open of the
//     same directory reports zero torn bytes and zero corruption —
//     whatever damage the bytes contained was cut off the tail the
//     first time (mid-file damage would stop replay at the same clean
//     prefix both times, also reporting consistently).
//  4. The journal stays appendable after recovery: a fresh record
//     written post-Open replays on the next Open.
func FuzzJournalReplay(f *testing.F) {
	// Seed corpus: a valid two-record log, its torn truncations, a
	// bit-flipped variant, pathological lengths, and junk.
	valid := append(
		encodeFrame([]byte(`{"type":"accepted","job_id":"job-000001","request":{"mode":"numerical"}}`)),
		encodeFrame([]byte(`{"type":"checkpoint","job_id":"job-000001","checkpoint_key":"ckpt|a|b"}`))...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])  // torn tail
	f.Add(valid[:frameHeader-2]) // torn header
	flipped := append([]byte(nil), valid...)
	flipped[frameHeader+5] ^= 0x20
	f.Add(flipped)                                    // CRC mismatch
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length field
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // zero length field
	f.Add([]byte("not a journal at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, fmt.Sprintf("journal-%06d.wal", 1))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var first []Record
		j, stats1, err := Open(dir, Options{}, func(r Record) { first = append(first, r) })
		if err != nil {
			t.Fatalf("Open failed on corrupt input (must recover, not refuse): %v", err)
		}
		if stats1.Records != len(first) {
			t.Fatalf("stats.Records %d != %d records delivered", stats1.Records, len(first))
		}
		// The journal must accept appends after any recovery.
		if err := j.Append(context.Background(), Record{Type: TypeAccepted, JobID: "post-recovery"}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j.Close()

		var second []Record
		j2, stats2, err := Open(dir, Options{}, func(r Record) { second = append(second, r) })
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		j2.Close()
		if stats2.TornBytes != 0 {
			t.Fatalf("second open still sees %d torn bytes — truncation was not idempotent", stats2.TornBytes)
		}
		if len(second) != len(first)+1 {
			t.Fatalf("second replay got %d records, want clean prefix (%d) + the appended one",
				len(second), len(first))
		}
		if got := second[len(second)-1]; got.JobID != "post-recovery" {
			t.Fatalf("appended record lost after recovery: %+v", got)
		}
		for i := range first {
			if second[i].Type != first[i].Type || second[i].JobID != first[i].JobID {
				t.Fatalf("replay not deterministic at record %d: %+v vs %+v", i, first[i], second[i])
			}
		}
	})
}
