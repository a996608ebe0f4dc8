package campaign

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"regexp"
	"strings"
	"testing"
)

// goldenGrid is the 216-scenario sweep of testdata/golden
// (ringfarm -sizes 8,12,16 -seeds 1:3).
var goldenGrid = Matrix{Sizes: []int{8, 12, 16}, Seeds: []int64{1, 2, 3}}

// goldenDigest returns the checksum testdata/golden/SHA256SUMS pins for name.
func goldenDigest(t *testing.T, name string) string {
	t.Helper()
	f, err := os.Open("../../testdata/golden/SHA256SUMS")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, file, ok := strings.Cut(sc.Text(), "  "); ok && file == name {
			return sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no checksum for %s in SHA256SUMS", name)
	return ""
}

// exportGrid runs the golden grid in process and returns its records.jsonl.
func exportGrid(t *testing.T, opts Options) []byte {
	t.Helper()
	scs, err := goldenGrid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := RunAll(context.Background(), scs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewOrderedWriter(&buf, scs)
	for _, rec := range recs {
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cacheAnnotation matches a record's cache field, the only bytes a cached
// sweep may add.
var cacheAnnotation = regexp.MustCompile(`,"cache":"[a-z]*"`)

// TestGoldenSweep pins the 216-scenario sweep to the checked-in digest of
// golden/sweep/records.jsonl, so go test catches a semantic drift without
// the CLI round trip, and checks that the cached sweep equals it once the
// cache annotations are stripped.
func TestGoldenSweep(t *testing.T) {
	plain := exportGrid(t, Options{})
	sum := sha256.Sum256(plain)
	if got, want := hex.EncodeToString(sum[:]), goldenDigest(t, "golden/sweep/records.jsonl"); got != want {
		t.Fatalf("records.jsonl digest %s, want %s: the sweep's observable output drifted (see testdata/golden/README.md)", got, want)
	}
	cached := exportGrid(t, Options{Cache: NewCache(0)})
	if !bytes.Equal(cacheAnnotation.ReplaceAll(cached, nil), plain) {
		t.Fatal("cached sweep differs from the uncached one beyond its cache annotations")
	}
	if !cacheAnnotation.Match(cached) {
		t.Fatal("cached sweep carries no cache annotations")
	}
}

// BenchmarkGoldenGrid times one pass of the golden grid on one worker, cache
// off: the workload behind EXPERIMENTS.md's CPU split of a grid pass
// (go test -run '^$' -bench GoldenGrid -benchmem -cpuprofile cpu.prof).
func BenchmarkGoldenGrid(b *testing.B) {
	scs, err := goldenGrid.Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunAll(context.Background(), scs, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
