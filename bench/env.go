package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"ringsym/internal/campaign"
)

// gridMatrix is the 216-scenario golden grid: sizes 8,12,16 × seeds 1:3
// across every task, model, parity and chirality regime.  Its ordered JSONL
// is pinned by testdata/golden/SHA256SUMS.
var gridMatrix = campaign.Matrix{Sizes: []int{8, 12, 16}, Seeds: []int64{1, 2, 3}}

// symMatrix is the 1440-scenario symmetric sweep: sizes 8,12 × seeds 1:5 ×
// phases 0:2 × both reflections, collapsing to one computation per orbit.
var symMatrix = campaign.Matrix{
	Sizes:       []int{8, 12},
	Seeds:       []int64{1, 2, 3, 4, 5},
	Phases:      []int{0, 1, 2},
	Reflections: []bool{false, true},
}

// env is the ground truth the workloads are checked against, computed once
// before any set-up is timed.
type env struct {
	cfg     config
	tmp     string
	grid    []campaign.Scenario
	gridRef [][]byte // golden JSONL lines in index order
	gridSum [32]byte
	sym     []campaign.Scenario
	symRef  [][]byte // uncached JSONL lines in index order
}

func newEnv(ctx context.Context, cfg config, tmp string) (*env, error) {
	e := &env{cfg: cfg, tmp: tmp}
	var err error
	if e.grid, err = gridMatrix.Expand(); err != nil {
		return nil, err
	}
	if e.sym, err = symMatrix.Expand(); err != nil {
		return nil, err
	}
	golden, err := goldenSum(cfg.golden)
	if err != nil {
		return nil, err
	}
	var sum [32]byte
	if e.gridRef, sum, err = reference(ctx, e.grid); err != nil {
		return nil, err
	}
	if sum != golden {
		return nil, fmt.Errorf("the uncached 216-scenario sweep hashes to %x, not to the golden %x", sum, golden)
	}
	e.gridSum = sum
	if e.symRef, _, err = reference(ctx, e.sym); err != nil {
		return nil, err
	}
	return e, nil
}

// goldenSum reads the records.jsonl checksum from a sha256sum-format file.
func goldenSum(path string) ([32]byte, error) {
	var sum [32]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, fmt.Errorf("golden checksums: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[1] == "golden/sweep/records.jsonl" {
			b, err := hex.DecodeString(fields[0])
			if err != nil || len(b) != len(sum) {
				return sum, fmt.Errorf("golden checksums: bad digest %q", fields[0])
			}
			copy(sum[:], b)
			return sum, nil
		}
	}
	if err := sc.Err(); err != nil {
		return sum, fmt.Errorf("golden checksums: %w", err)
	}
	return sum, fmt.Errorf("golden checksums: %s has no golden/sweep/records.jsonl entry", path)
}

// reference runs the scenarios uncached and returns their JSONL lines in
// index order (without newlines) and the digest of the whole file.
func reference(ctx context.Context, scenarios []campaign.Scenario) ([][]byte, [32]byte, error) {
	recs, err := campaign.RunAll(ctx, scenarios, campaign.Options{})
	if err != nil {
		return nil, [32]byte{}, err
	}
	var buf bytes.Buffer
	ow := campaign.NewOrderedWriter(&buf, scenarios)
	for _, rec := range recs {
		if rec.Status == campaign.StatusFailed {
			return nil, [32]byte{}, fmt.Errorf("reference run: %s failed: %s", rec.Key(), rec.Error)
		}
		if err := ow.Add(rec); err != nil {
			return nil, [32]byte{}, err
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")), sum, nil
}

// diffLines counts the records of a JSONL artefact that differ from ref.
func diffLines(jsonl []byte, ref [][]byte) int {
	got := bytes.Split(bytes.TrimSuffix(jsonl, []byte("\n")), []byte("\n"))
	bad := 0
	for i, want := range ref {
		if i >= len(got) || !bytes.Equal(got[i], want) {
			bad++
		}
	}
	return bad
}
