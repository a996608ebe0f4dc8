package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"ringsym/internal/campaign"
	"ringsym/internal/serve"
)

// goldenJobs returns the local and the fleet job for the 216-scenario grid
// that testdata/golden pins (ringfarm -sizes 8,12,16 -seeds 1:3), expanded
// through the flag path.  The fleet job's two workers start when it is
// built.
func goldenJobs(t *testing.T) map[string]func() job {
	t.Helper()
	m, err := buildMatrix("", "", "", "", "", "", "8,12,16", "1:3", "", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() job{
		"local": func() job { return localJob(scs, 0, 1, len(scs), campaign.Options{}) },
		"fleet": func() job { return fleetJob(m, len(scs), fleetOfTwo(t), 0) },
	}
}

// fleetOfTwo starts two in-process ringd workers (cache off) and returns
// their roster.
func fleetOfTwo(t *testing.T) []string {
	t.Helper()
	var roster []string
	for range 2 {
		pool := serve.New(serve.Options{Workers: 1})
		ts := httptest.NewServer(pool.Handler())
		t.Cleanup(func() {
			ts.Close()
			pool.Close()
		})
		roster = append(roster, ts.URL)
	}
	return roster
}

// goldenSums reads testdata/golden/SHA256SUMS into a name → digest map.
func goldenSums(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../testdata/golden/SHA256SUMS")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sums := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			sums[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

// TestSweepGolden runs the golden grid through runSweep, locally and
// on a fleet of two, and checks that each run's three artefacts match the
// checked-in digests.
func TestSweepGolden(t *testing.T) {
	sums := goldenSums(t)
	for name, j := range goldenJobs(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := runSweep(j(), dir, true, false, ""); err != nil {
				t.Fatal(err)
			}
			for _, file := range []string{"records.jsonl", "summary.csv", "summary.md"} {
				data, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got, want := hex.EncodeToString(sum[:]), sums["golden/sweep/"+file]; got != want {
					t.Errorf("%s digest %s, want %s (see testdata/golden/README.md)", file, got, want)
				}
			}
		})
	}
}

// TestSweepFailingSink checks that a records file whose writes fail makes
// runSweep return the write error, locally and on a fleet: records.jsonl
// is a symlink to /dev/full, where every write fails with ENOSPC (and fsync
// with another error, so the check needs the write's own).
func TestSweepFailingSink(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for name, j := range goldenJobs(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.Symlink("/dev/full", filepath.Join(dir, "records.jsonl")); err != nil {
				t.Fatal(err)
			}
			err := runSweep(j(), dir, true, false, "")
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("sweep into a failing records file returned %v, want the write's ENOSPC", err)
			}
			if _, serr := os.Stat(filepath.Join(dir, "summary.csv")); serr == nil {
				t.Errorf("sweep wrote summaries after the records write failed (%v)", err)
			}
		})
	}
}

// TestSweepFailedRunClearsSummaries checks that a run that does not finish
// leaves no summaries in a reused out directory: the last run's would sit
// beside records they do not summarise.
func TestSweepFailedRunClearsSummaries(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"summary.csv", "summary.md"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("an earlier run's summary\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	j := job{
		total: 1,
		run:   func(context.Context, io.Writer, func(campaign.Record)) error { return boom },
	}
	if err := runSweep(j, dir, true, false, ""); !errors.Is(err, boom) {
		t.Fatalf("runSweep = %v, want the run's error", err)
	}
	for _, name := range []string{"summary.csv", "summary.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived a failed run (stat: %v)", name, err)
		}
	}
}
