// Package analysistest runs chainvet analyzers over fixture packages
// and checks their findings against // want annotations — the same
// contract as golang.org/x/tools/go/analysis/analysistest, rebuilt on
// the in-repo driver so fixtures need no external dependency.
//
// Fixtures live under <pass>/testdata/src/<pkgpath>/*.go and are real,
// type-checked Go packages (standard-library imports resolve through
// the build cache; an import of another directory under src loads that
// fixture). The fixture's package path is <pkgpath>, which is
// how path-sensitive passes are exercised: a fixture directory named
// "engine" IS a consensus-critical package as far as the suite's
// predicates are concerned.
//
// Expectations are trailing comments on the offending line:
//
//	for k := range m { // want `map iteration order`
//
// The quoted text is a regexp matched against the finding's message;
// several want clauses on one line expect several findings. Findings
// already suppressed by //chainvet:allow directives never reach the
// matcher (the harness applies the same Filter as the real driver), so
// a fixture exercising the directive simply carries no want.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"contractstm/internal/analysis"
	"contractstm/internal/analysis/driver"
	"contractstm/internal/analysis/suite"
)

// TestData returns the testdata directory of the calling test's
// package.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run analyzes the fixture package at dir/src/<pkgpath> with the
// analyzer and reports mismatches against its // want annotations.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	target, err := loadFixture(token.NewFileSet(), filepath.Join(dir, "src"), pkgpath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}
	diags, err := analysis.Run(target, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgpath, err)
	}
	diags = analysis.Filter(target, diags, suite.Known())
	checkWants(t, target, diags)
}

// loadFixture parses and type-checks the fixture directory src/<pkgpath>
// as package pkgpath. An import that names another fixture directory
// under src is loaded from there the same way.
func loadFixture(fset *token.FileSet, src, pkgpath string) (*analysis.Target, error) {
	dir := filepath.Join(src, filepath.FromSlash(pkgpath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	isFixture := func(path string) bool {
		fi, err := os.Stat(filepath.Join(src, filepath.FromSlash(path)))
		return err == nil && fi.IsDir()
	}
	var files []*ast.File
	var imports []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); !isFixture(path) {
				imports = append(imports, path)
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	exports, err := stdExports(imports)
	if err != nil {
		return nil, err
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("fixture imports %q: only standard-library and fixture imports are supported in fixtures", path)
		}
		return os.Open(f)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if !isFixture(path) {
			return std.Import(path)
		}
		t, err := loadFixture(fset, src, path)
		if err != nil {
			return nil, err
		}
		return t.Pkg, nil
	})
	return driver.Check(fset, pkgpath, files, imp)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var (
	exportMu    sync.Mutex
	exportCache = map[string]string{}
)

// stdExports resolves export-data files for the given standard-library
// import paths (plus their dependency closure) via go list, caching
// across fixtures.
func stdExports(paths []string) (map[string]string, error) {
	exportMu.Lock()
	defer exportMu.Unlock()
	var missing []string
	for _, p := range paths {
		if _, ok := exportCache[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, missing...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Export != "" {
				exportCache[p.ImportPath] = p.Export
			}
		}
	}
	out := map[string]string{}
	for k, v := range exportCache {
		out[k] = v
	}
	return out, nil
}

var wantRe = regexp.MustCompile("//\\s*want\\s+(.*)")

// A want is one expected finding.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// checkWants compares findings against the fixtures' // want comments.
func checkWants(t *testing.T, target *analysis.Target, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range target.Files {
		filename := target.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := target.Fset.Position(c.Pos()).Line
				for _, pat := range splitPatterns(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", filename, line, pat, err)
					}
					wants = append(wants, &want{file: filename, line: line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// splitPatterns extracts the quoted (double- or back-quoted) regexps
// from a want clause.
func splitPatterns(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '`':
			if j := strings.IndexByte(s[i+1:], '`'); j >= 0 {
				out = append(out, s[i+1:i+1+j])
				i += j + 1
			}
		case '"':
			if j := strings.IndexByte(s[i+1:], '"'); j >= 0 {
				out = append(out, s[i+1:i+1+j])
				i += j + 1
			}
		}
	}
	return out
}
