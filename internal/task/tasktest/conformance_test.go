package tasktest

import (
	"testing"

	"ringsym/internal/task"
)

// TestConformance runs the full obligation suite against both tasks.
func TestConformance(t *testing.T) {
	for _, name := range task.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			Conformance(t, name)
		})
	}
}
