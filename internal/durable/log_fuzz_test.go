package durable_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aid/internal/durable"
)

// writeLog builds a log image the real way: a fresh OpenLog, one Append
// per record, Close, then the file's bytes.
func writeLog(tb testing.TB, path string, records [][]byte) []byte {
	tb.Helper()
	l, _, _, err := durable.OpenLog(durable.OS(), path, durable.SyncNone)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzOpenLog feeds arbitrary bytes to log recovery. Whatever the image,
// OpenLog must not fail or panic, must count exactly the records it
// returns, must leave behind the very bytes a fresh log holding those
// records would have, and must leave a file that a second OpenLog reads
// back unchanged with nothing left to repair.
func FuzzOpenLog(f *testing.F) {
	good := writeLog(f, filepath.Join(f.TempDir(), "seed.log"),
		[][]byte{[]byte("one"), []byte(`{"two":2}`), {}})
	flipped := bytes.Clone(good)
	flipped[len(flipped)-12] ^= 0x04 // inside the second record's frame
	badHeader := bytes.Clone(good)
	badHeader[0] = 'X'
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail
	f.Add(flipped)
	f.Add(badHeader)
	f.Add([]byte{})

	// Inputs run one at a time per process, so they can share the two
	// file paths instead of paying for a fresh directory each.
	dir := f.TempDir()
	path, freshPath := filepath.Join(dir, "fuzz.log"), filepath.Join(dir, "fresh.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.Remove(freshPath); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, records, info, err := durable.OpenLog(durable.OS(), path, durable.SyncNone)
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if info.RecordsKept != len(records) {
			t.Fatalf("RecordsKept = %d, returned %d records", info.RecordsKept, len(records))
		}

		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if fresh := writeLog(t, freshPath, records); !bytes.Equal(repaired, fresh) {
			t.Fatalf("repaired file differs from a fresh log of the recovered records\nrepaired: %q\nfresh:    %q", repaired, fresh)
		}

		l2, again, info2, err := durable.OpenLog(durable.OS(), path, durable.SyncNone)
		if err != nil {
			t.Fatalf("second OpenLog: %v", err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if info2.Truncated || info2.RecordsDropped != 0 {
			t.Fatalf("second OpenLog repaired again: %+v", info2)
		}
		if len(again) != len(records) {
			t.Fatalf("second OpenLog returned %d records, first %d", len(again), len(records))
		}
		for i := range records {
			if !bytes.Equal(again[i], records[i]) {
				t.Fatalf("record %d: second OpenLog %q, first %q", i, again[i], records[i])
			}
		}
	})
}
