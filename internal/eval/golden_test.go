package eval

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"ringsym"
	"ringsym/internal/ring"
)

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

// TestGoldenTables pins Table I/II to the checked-in digest of
// golden/tables.txt: it rebuilds, in process, exactly what
// `benchtables -tables -sizes 16,32 -seed 1` prints with the JSON file off
// (N = 4n).
func TestGoldenTables(t *testing.T) {
	cfg := SweepConfig{Sizes: []int{16, 32}, IDBoundFactor: 4, Seed: 1}
	var b strings.Builder
	rows1, err := TableRowsContext(context.Background(), ringsym.Table(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(Format("Table I - deterministic solutions in the general setting", rows1) + "\n")
	rows2, err := TableRowsContext(context.Background(), ringsym.Table(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(Format("Table II - deterministic solutions with a common sense of direction", rows2) + "\n")
	sum := sha256.Sum256([]byte(b.String()))
	if got, want := hex.EncodeToString(sum[:]), goldenDigest(t, "golden/tables.txt"); got != want {
		t.Fatalf("tables.txt digest %s, want %s: the tables' observable output drifted (see testdata/golden/README.md)\n%s", got, want, b.String())
	}
}

// TestGoldenFigures pins Figures 1-3 to the checked-in digest of
// golden/figures.txt: it rebuilds, in process, exactly what
// `benchtables -figures -sizes 16,32 -seed 1` prints (the reductions at the
// middle size n = 32, the RingDist curve over both sizes, N = 4n).
func TestGoldenFigures(t *testing.T) {
	const seed, idFactor = 1, 4
	sizes := []int{16, 32}
	n := sizes[len(sizes)/2]
	var b strings.Builder
	fig1, err := MeasureReductions(context.Background(), ringsym.CellOf(ring.Lazy, false, false), n, idFactor*n, seed)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatReductions("Figure 1 - reductions among coordination problems (odd n / lazy / perceptive)", fig1) + "\n")
	fig2, err := MeasureReductions(context.Background(), ringsym.CellOf(ring.Basic, false, false), n, idFactor*n, seed)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatReductions("Figure 2 - reductions among coordination problems (basic model, even n)", fig2) + "\n")
	fig3, err := MeasureRingDist(context.Background(), sizes, idFactor, seed)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatRingDist(fig3) + "\n")
	sum := sha256.Sum256([]byte(b.String()))
	if got, want := hex.EncodeToString(sum[:]), goldenDigest(t, "golden/figures.txt"); got != want {
		t.Fatalf("figures.txt digest %s, want %s: the figures' observable output drifted (see testdata/golden/README.md)\n%s", got, want, b.String())
	}
}
