package task

import (
	"context"
	"strings"
	"testing"

	"ringsym"
	"ringsym/internal/canon"
	"ringsym/internal/ring"
)

func TestNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"bounce", "coordinate", "discover", "patrol", "swarmlocate"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry lacks %q (have %v)", want, names)
		}
	}
	if !sortedStrings(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

func TestPaperBoundNames(t *testing.T) {
	// The default task axis of a campaign matrix must stay exactly the
	// paper's built-ins, whatever derived workloads the registry grows —
	// that is what keeps default sweeps byte-identical across PRs.
	got := PaperBoundNames()
	if len(got) != 2 || got[0] != "coordinate" || got[1] != "discover" {
		t.Fatalf("PaperBoundNames() = %v, want [coordinate discover]", got)
	}
}

func TestLookup(t *testing.T) {
	spec, err := Lookup("Coordinate") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name() != "coordinate" {
		t.Fatalf("Lookup(Coordinate).Name() = %q", spec.Name())
	}
	_, err = Lookup("no-such-task")
	if err == nil {
		t.Fatal("Lookup of an unknown task succeeded")
	}
	// The error must be self-explaining: a typo in a sweep spec or an HTTP
	// request surfaces the full catalogue.
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-task error does not list %q: %v", name, err)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	for _, tc := range []struct {
		label string
		spec  Spec
	}{
		{"duplicate", coordinateSpec{}},
		{"empty name", badNameSpec{name: ""}},
		{"uppercase name", badNameSpec{name: "Shout"}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%s) did not panic", tc.label)
				}
			}()
			Register(tc.spec)
		}()
	}
}

// badNameSpec is a minimal Spec used only to provoke Register's name checks.
type badNameSpec struct{ name string }

func (s badNameSpec) Name() string                 { return s.name }
func (badNameSpec) Description() string            { return "invalid" }
func (badNameSpec) PaperBound() bool               { return false }
func (badNameSpec) Solvable(ring.Model, bool) bool { return false }
func (badNameSpec) Bound(ring.Model, bool, bool, int, int) (float64, string) {
	return 0, "n/a"
}
func (badNameSpec) Run(context.Context, *ringsym.Network, Params) (Outcome, error) {
	return Outcome{}, nil
}
func (badNameSpec) Verify(*ringsym.Network, Params, Outcome) error { return nil }
func (badNameSpec) MapOutcome(out Outcome, _ canon.Map) Outcome    { return out }

func TestReframe(t *testing.T) {
	out := Outcome{Rounds: 7, PerAgent: []Split{{Leader: 1}, {Leader: 2}, {Leader: 3}, {Leader: 4}}}
	id := Reframe(out, canon.Map{N: 4})
	// Identity frames share the slice: the cached outcome must never be
	// copied on the hot path.
	if &id.PerAgent[0] != &out.PerAgent[0] {
		t.Error("identity Reframe copied the per-agent slice")
	}
	m := canon.Map{N: 4, Rotation: 1}
	rot := Reframe(out, m)
	if &rot.PerAgent[0] == &out.PerAgent[0] {
		t.Error("rotating Reframe aliased the shared per-agent slice")
	}
	for i := range rot.PerAgent {
		if rot.PerAgent[i] != out.PerAgent[m.CanonIndex(i)] {
			t.Errorf("agent %d: got split %+v, want canonical index %d's %+v",
				i, rot.PerAgent[i], m.CanonIndex(i), out.PerAgent[m.CanonIndex(i)])
		}
	}
	// n identical splits read the same in every frame, as a decoded stored
	// outcome always does: they are shared, not copied.
	same := Outcome{Rounds: 7, PerAgent: []Split{{Leader: 5}, {Leader: 5}, {Leader: 5}, {Leader: 5}}}
	if got := Reframe(same, canon.Map{N: 4, Rotation: 3, Reflected: true}); &got.PerAgent[0] != &same.PerAgent[0] {
		t.Error("Reframe copied an outcome of identical splits")
	}
}
