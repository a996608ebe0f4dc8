package campaign

import (
	"bytes"
	"testing"
)

// FuzzDecodeMatrix feeds arbitrary bytes to the sweep-spec decoder, the path
// every ringfarm -spec file and POST /v1/campaign body takes.  Decoding,
// bounding and (for small matrices) expansion must not panic, and an
// expansion that succeeds must respect the pre-expansion bounds and produce
// well-formed scenarios: indices equal to positions, n within the bound and
// above the paper's minimum, and an identifier bound that is exactly the
// factor times n, with no overflow.
func FuzzDecodeMatrix(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMatrix(bytes.NewReader(data))
		if err != nil {
			return
		}
		bound, maxN := m.UpperBounds()
		if bound > 4096 {
			return // Expand would allocate one Scenario per product element
		}
		scs, err := m.Expand()
		if err != nil {
			return
		}
		if len(scs) > bound {
			t.Fatalf("Expand gave %d scenarios, above UpperBounds %d", len(scs), bound)
		}
		factor := m.IDBoundFactor
		if factor <= 0 {
			factor = 4
		}
		for i, sc := range scs {
			if sc.Index != i {
				t.Fatalf("scenario %d has Index %d", i, sc.Index)
			}
			if sc.N < 5 || sc.N > maxN {
				t.Fatalf("scenario %d: n = %d outside [5, %d]", i, sc.N, maxN)
			}
			if sc.IDBound < sc.N || sc.IDBound%factor != 0 || sc.IDBound/factor != sc.N {
				t.Fatalf("scenario %d: IDBound %d is not %d·%d", i, sc.IDBound, factor, sc.N)
			}
		}
	})
}
