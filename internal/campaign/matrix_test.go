package campaign

import (
	"reflect"
	"strings"
	"testing"
)

func TestExpandDeterministicAndComplete(t *testing.T) {
	m := Matrix{Sizes: []int{8, 16}, Seeds: []int64{1, 2, 3}, CommonSense: []bool{false, true}}
	a, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	// tasks(2) × models(3) × parities(2) × (mixed: cs=false only → 1;
	// common: cs false+true → 2) × sizes(2) × seeds(3)
	want := 2 * 3 * 2 * 3 * 2 * 3
	if len(a) != want {
		t.Fatalf("got %d scenarios, want %d", len(a), want)
	}
	for i, sc := range a {
		if sc.Index != i {
			t.Fatalf("scenario %d has index %d", i, sc.Index)
		}
		if sc.CommonSense && sc.MixedChirality {
			t.Fatalf("scenario %d: contradictory common sense with mixed chirality", i)
		}
		if sc.IDBound != 4*sc.N {
			t.Fatalf("scenario %d: IDBound %d for n=%d", i, sc.IDBound, sc.N)
		}
	}
}

func TestExpandParityAdjustment(t *testing.T) {
	m := Matrix{Tasks: []Task{TaskCoordinate}, Models: []string{"basic"}, Sizes: []int{8}}
	scs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 4 { // parities(2) × chirality(2)
		t.Fatalf("got %d scenarios, want 4", len(scs))
	}
	odd, even := 0, 0
	for _, sc := range scs {
		if sc.N == 9 {
			odd++
		}
		if sc.N == 8 {
			even++
		}
	}
	if odd != 2 || even != 2 {
		t.Fatalf("parity adjustment wrong: odd(n=9)=%d even(n=8)=%d in %+v", odd, even, scs)
	}
}

func TestExpandRejectsBadAxes(t *testing.T) {
	for _, m := range []Matrix{
		{Models: []string{"quantum"}},
		{Tasks: []Task{"fly"}},
		{Parities: []string{"prime"}},
		{Chirality: []string{"sinister"}},
		{Sizes: []int{3}},
		// IDBoundFactor·n must not overflow: 2^61·8 wraps to 0 (which
		// netgen read as "use the default") and (2^60+1)·9 wraps negative.
		{Sizes: []int{8}, IDBoundFactor: 1 << 61},
		{Sizes: []int{8}, IDBoundFactor: 1<<60 + 1},
		// The perceptive protocols cannot run an identifier bound of 2^30:
		// 2^27·8 is rejected up front instead of failing every record.
		{Sizes: []int{8}, IDBoundFactor: 1 << 27},
	} {
		if _, err := m.Expand(); err == nil {
			t.Errorf("Expand(%+v) accepted an invalid axis", m)
		}
	}
}

func TestShardPartition(t *testing.T) {
	scs, err := Matrix{Sizes: []int{8, 12, 16}, Seeds: []int64{1, 2}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 3, 5, 7, len(scs), len(scs) + 3} {
		seen := make(map[int]int)
		var union []Scenario
		for i := 0; i < m; i++ {
			shard, err := Shard(scs, i, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range shard {
				seen[sc.Index]++
			}
			union = append(union, shard...)
		}
		if len(seen) != len(scs) {
			t.Fatalf("m=%d: shards cover %d of %d scenarios", m, len(seen), len(scs))
		}
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("m=%d: scenario %d appears in %d shards", m, idx, c)
			}
		}
		if !reflect.DeepEqual(union, scs) {
			t.Fatalf("m=%d: concatenated shards differ from the full list", m)
		}
	}
	if _, err := Shard(scs, 2, 2); err == nil {
		t.Error("Shard accepted i == m")
	}
}

func TestParseShard(t *testing.T) {
	if i, m, err := ParseShard(""); err != nil || i != 0 || m != 1 {
		t.Errorf("ParseShard(\"\") = %d/%d, %v", i, m, err)
	}
	if i, m, err := ParseShard("2/5"); err != nil || i != 2 || m != 5 {
		t.Errorf("ParseShard(2/5) = %d/%d, %v", i, m, err)
	}
	for _, s := range []string{
		"5/5", "-1/3", "x/y", "3",
		// Degenerate and trailing-garbage designators must be rejected too:
		// m=0 would make every shard invalid, and Sscanf-style parsing used
		// to silently ignore the junk after a valid prefix.
		"0/0", "1/0", "0/4x", "1/2/3", " 0/4", "0/ 4", "0x1/4", "/4", "0/",
	} {
		if _, _, err := ParseShard(s); err == nil {
			t.Errorf("ParseShard(%q) accepted", s)
		}
	}
}

func TestDecodeMatrix(t *testing.T) {
	m, err := DecodeMatrix(strings.NewReader(
		`{"tasks": ["patrol"], "models": ["lazy"], "sizes": [9], "seeds": [1, 2]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Tasks, []Task{"patrol"}) || !reflect.DeepEqual(m.Sizes, []int{9}) {
		t.Fatalf("decoded matrix %+v", m)
	}

	// A typo'd axis must fail loudly, not silently sweep the defaults.
	_, err = DecodeMatrix(strings.NewReader(`{"task": ["coordinate"], "sizes": [8]}`))
	if err == nil {
		t.Fatal("DecodeMatrix accepted an unknown field")
	}
	for _, want := range []string{`"task"`, "tasks, models"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-field error %q does not mention %s", err, want)
		}
	}

	if _, err := DecodeMatrix(strings.NewReader(`{"sizes": [8]} {"sizes": [16]}`)); err == nil {
		t.Error("DecodeMatrix accepted trailing data")
	}
	if _, err := DecodeMatrix(strings.NewReader(`{"sizes": "all"}`)); err == nil {
		t.Error("DecodeMatrix accepted a mistyped axis value")
	}
}
