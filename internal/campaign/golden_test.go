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

// goldenGridCommonSense is the 108-scenario common-sense sweep of
// testdata/golden (ringfarm -sizes 8,12,16 -seeds 1:3 -commonsense true):
// every Table II cell, odd n of all three models included.
var goldenGridCommonSense = Matrix{Sizes: []int{8, 12, 16}, Seeds: []int64{1, 2, 3}, CommonSense: []bool{true}}

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

// exportGrid runs a golden grid in process and returns its records.jsonl.
func exportGrid(t *testing.T, grid Matrix, opts Options) []byte {
	t.Helper()
	scs, err := grid.Expand()
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

// TestGoldenSweep pins the 216-scenario sweep and the common-sense sweep to
// the checked-in digests of their records.jsonl, so go test catches a
// semantic drift without the CLI round trip, and checks that each cached
// sweep equals its uncached one once the cache annotations are stripped.
func TestGoldenSweep(t *testing.T) {
	for _, g := range []struct {
		dir  string
		grid Matrix
	}{
		{"golden/sweep", goldenGrid},
		{"golden/sweep-cs", goldenGridCommonSense},
	} {
		t.Run(g.dir, func(t *testing.T) {
			plain := exportGrid(t, g.grid, Options{})
			sum := sha256.Sum256(plain)
			if got, want := hex.EncodeToString(sum[:]), goldenDigest(t, g.dir+"/records.jsonl"); got != want {
				t.Fatalf("records.jsonl digest %s, want %s: the sweep's observable output drifted (see testdata/golden/README.md)", got, want)
			}
			cached := exportGrid(t, g.grid, Options{Cache: NewCache(0)})
			if !bytes.Equal(cacheAnnotation.ReplaceAll(cached, nil), plain) {
				t.Fatal("cached sweep differs from the uncached one beyond its cache annotations")
			}
			if !cacheAnnotation.Match(cached) {
				t.Fatal("cached sweep carries no cache annotations")
			}
		})
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

// BenchmarkSymmetricSweep times one cached pass of ringbench's 1440-scenario
// symmetric sweep (sizes 8,12 × seeds 1:5 × phases 0:2 × reflect) on two
// workers with a fresh cache per pass: 220 computes and 1220 cheap
// cache-served scenarios, so the runner's own dispatch cost shows next to
// the protocols.
func BenchmarkSymmetricSweep(b *testing.B) {
	scs, err := Matrix{
		Sizes:       []int{8, 12},
		Seeds:       []int64{1, 2, 3, 4, 5},
		Phases:      []int{0, 1, 2},
		Reflections: []bool{false, true},
	}.Expand()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunAll(context.Background(), scs, Options{Workers: 2, Cache: NewCache(0)}); err != nil {
			b.Fatal(err)
		}
	}
}
