package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// referenceScan decodes a segment file from the documented layout alone: the
// magic, then records of CRC32C | key length | value length | key | value,
// up to the first record that is short, out of bounds or fails its
// checksum.  Later records for a key win.
func referenceScan(data []byte) map[string]string {
	recs := make(map[string]string)
	if !bytes.HasPrefix(data, []byte(segMagic)) {
		return recs
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	rest := data[len(segMagic):]
	for len(rest) >= 12 {
		kl := uint64(binary.BigEndian.Uint32(rest[4:8]))
		vl := uint64(binary.BigEndian.Uint32(rest[8:12]))
		if kl == 0 || kl > maxKeyLen || vl > maxValLen || uint64(len(rest)-12) < kl+vl {
			break
		}
		end := 12 + kl + vl
		if crc32.Checksum(rest[4:end], table) != binary.BigEndian.Uint32(rest[:4]) {
			break
		}
		recs[string(rest[12:12+kl])] = string(rest[12+kl : end])
		rest = rest[end:]
	}
	return recs
}

// FuzzStoreOpen writes arbitrary bytes as a segment file and opens the store
// over it.  Open must not panic; every key the boot scan indexes must miss or
// return exactly the value its checksum covers; and a Put after Open must
// survive a reopen.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := referenceScan(data)
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		s.mu.RLock()
		keys := make([]string, 0, len(s.idx))
		for key := range s.idx {
			keys = append(keys, key)
		}
		s.mu.RUnlock()
		if len(keys) != len(want) {
			t.Fatalf("indexed %d keys, the segment holds %d valid ones", len(keys), len(want))
		}
		for _, key := range keys {
			val, ok := want[key]
			if !ok {
				t.Fatalf("indexed key %q has no valid record", key)
			}
			if got, ok := s.Get(key); ok && string(got) != val {
				t.Fatalf("Get(%q) = %q, want %q", key, got, val)
			}
		}

		// The put value differs in length from any resident copy, so the
		// Put appends instead of taking the no-op path.
		key, val := "fuzz|put-after-open", []byte("appended after the boot scan")
		if old, ok := want[key]; ok && len(old) == len(val) {
			val = append(val, '!')
		}
		put(t, s, key, val)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s2.Close()
		wantGet(t, s2, key, val)
	})
}
