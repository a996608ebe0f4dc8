package main

import (
	"os"
	"path/filepath"
	"testing"

	"ringsym/internal/lint"
	"ringsym/internal/lint/analysis"
)

// repoRoot walks up from the test's working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestTreeIsClean is the merge bar: the full analyzer suite over every
// package of the module reports nothing.  A new violation either gets fixed
// or gets a justified //ringvet:allow — this test is where that conversation
// is forced.
func TestTreeIsClean(t *testing.T) {
	pkgs, err := analysis.Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the ./... pattern no longer covers the tree", len(pkgs))
	}
	findings, err := analysis.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
