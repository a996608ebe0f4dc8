// Package analysistest runs a ringvet analyzer over fixture packages and
// checks its diagnostics against expectations written in the fixtures, the
// way golang.org/x/tools/go/analysis/analysistest does:
//
//	testdata/src/<pkg>/file.go
//
//	obs.Emit(ev) // want `obs\.Emit not dominated`
//
// A `// want` comment carries one or more Go string literals (quoted or
// backquoted), each a regular expression that must match a diagnostic
// reported on that line.  Every diagnostic must be wanted and every want
// must be matched; anything else fails the test.  Diagnostics suppressed by
// a //ringvet:allow comment never reach matching, so fixtures exercise the
// escape hatch by writing an allow with no want on the same line.
//
// Fixture packages may import fakes of repository packages (for example a
// miniature ringsym/internal/obs) by placing them in the same testdata/src
// tree; import paths not found there resolve to the real toolchain packages
// via export data, so fixtures use context, sync/atomic, time, ... freely.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ringsym/internal/lint/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run loads each fixture package from testdata/src, applies the analyzer,
// and matches its findings against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	imp, err := newFixtureImporter(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range pkgpaths {
		pkg, err := imp.loadTree(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		findings, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, pkg, findings)
	}
}

// want is one expectation: a regexp that must match a finding on its line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	text string
}

// wantRE matches the Go string literals of a want comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func checkWants(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				for _, lit := range wantRE.FindAllString(text[i+len("// want "):], -1) {
					pattern, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s: bad want literal %s: %v", posn, lit, err)
						continue
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", posn, pattern, err)
						continue
					}
					wants = append(wants, &want{posn.Filename, posn.Line, re, pattern})
				}
			}
		}
	}

	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.re == nil || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.re = nil // consumed
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if w.re != nil {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.text)
		}
	}
}

// fixtureImporter resolves imports testdata-first, export-data second.
type fixtureImporter struct {
	fset    *token.FileSet
	src     string
	gc      types.Importer
	typed   map[string]*types.Package
	full    map[string]*analysis.Package
	loading map[string]bool
}

func newFixtureImporter(src string) (*fixtureImporter, error) {
	exports, err := stdExports(src)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	im := &fixtureImporter{
		fset:    fset,
		src:     src,
		typed:   map[string]*types.Package{},
		full:    map[string]*analysis.Package{},
		loading: map[string]bool{},
	}
	im.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return im, nil
}

// stdExports collects export-data files for every import in the fixture tree
// that the tree itself does not provide, in one `go list` invocation.
func stdExports(src string) (map[string]string, error) {
	outside := map[string]bool{}
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if st, err := os.Stat(filepath.Join(src, p)); err != nil || !st.IsDir() {
				outside[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	if len(outside) == 0 {
		return exports, nil
	}
	args := []string{"list", "-e", "-deps", "-export", "-f",
		`{{if .Export}}{{.ImportPath}} {{.Export}}{{end}}`, "--"}
	for p := range outside {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list for fixture imports: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

// Import implements types.Importer.
func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.typed[path]; ok {
		return pkg, nil
	}
	if st, err := os.Stat(filepath.Join(im.src, path)); err == nil && st.IsDir() {
		pkg, err := im.loadTree(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return im.gc.Import(path)
}

// loadTree parses and typechecks one package out of the testdata/src tree.
func (im *fixtureImporter) loadTree(path string) (*analysis.Package, error) {
	if pkg, ok := im.full[path]; ok {
		return pkg, nil
	}
	if im.loading[path] {
		return nil, fmt.Errorf("import cycle through fixture %q", path)
	}
	im.loading[path] = true
	defer delete(im.loading, path)

	dir := filepath.Join(im.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %q has no Go files", path)
	}
	tpkg, info, err := analysis.Check(im.fset, path, files, im)
	if err != nil {
		return nil, err
	}
	pkg := &analysis.Package{
		Path:      path,
		Dir:       dir,
		Fset:      im.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	im.typed[path] = tpkg
	im.full[path] = pkg
	return pkg, nil
}
