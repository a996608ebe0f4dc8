// Package lint is the catalogue of ringvet's analyzers: the repository's
// proof obligations and engineering invariants, re-stated as compile-time
// checks.
//
// Each analyzer lives in its own subpackage with analysistest fixtures under
// testdata/src exercising both a flagged and an allowed case; the kernel they
// are written against is internal/lint/analysis (a stdlib-only re-creation of
// the golang.org/x/tools/go/analysis surface, see its doc comment for why).
// cmd/ringvet runs the whole catalogue over package patterns.  All analyzers
// honor the //ringvet:allow escape hatch (analysis/allow.go).
package lint

import (
	"ringsym/internal/lint/analysis"
	"ringsym/internal/lint/atomicfield"
	"ringsym/internal/lint/ctxflow"
	"ringsym/internal/lint/determinism"
	"ringsym/internal/lint/fsmguard"
	"ringsym/internal/lint/obsguard"
)

// All returns every registered analyzer, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicfield.Analyzer,
		ctxflow.Analyzer,
		determinism.Analyzer,
		fsmguard.Analyzer,
		obsguard.Analyzer,
	}
}
