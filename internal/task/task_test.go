package task

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ringsym/internal/ring"
)

func TestNames(t *testing.T) {
	names := Names()
	if want := []string{"coordinate", "discover"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	// Each spec answers to the lowercase name it is listed under: Lookup
	// lowercases its argument, so an uppercase Name could never be found.
	for i, spec := range specs {
		if name := spec.Name(); name != strings.ToLower(name) || name != names[i] {
			t.Errorf("spec %d: Name() = %q, listed as %q", i, name, names[i])
		}
	}
}

// TestPaperBoundNames: every catalogued task is one the paper states a
// bound for, so the default task axis of a campaign matrix, which is
// Names(), stays exactly the paper's two tasks.  A task counts as
// paper-bound when Bound gives a positive, finite formula in every setting
// where Solvable holds.
func TestPaperBoundNames(t *testing.T) {
	var got []string
	for _, name := range Names() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		bounded := true
		for _, model := range []ring.Model{ring.Basic, ring.Lazy, ring.Perceptive} {
			for _, oddN := range []bool{false, true} {
				if !spec.Solvable(model, oddN) {
					continue
				}
				n := 8
				if oddN {
					n = 9
				}
				for _, cs := range []bool{false, true} {
					v, label := spec.Bound(model, oddN, cs, n, 64)
					if !(v > 0) || math.IsInf(v, 0) || label == "n/a" || label == "not solvable" {
						t.Errorf("%s: Bound(%v, oddN=%v, commonSense=%v) = %v, %q", name, model, oddN, cs, v, label)
						bounded = false
					}
				}
			}
		}
		if bounded {
			got = append(got, name)
		}
	}
	if want := []string{"coordinate", "discover"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("paper-bound tasks = %v, want %v", got, want)
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
