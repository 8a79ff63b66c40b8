// Package linttest runs a lint.Analyzer over a testdata package and checks
// its diagnostics against expectations written in the source, in the style
// of golang.org/x/tools/go/analysis/analysistest (which the offline build
// environment cannot vendor):
//
//	for k := range m { // want `nondeterministic order`
//
// Each `// want` comment holds one or more backquoted or double-quoted
// regular expressions, each of which must match exactly one diagnostic
// reported on that line; diagnostics with no matching expectation, and
// expectations with no matching diagnostic, fail the test.
//
// Testdata packages are type-checked hermetically: imports resolve only
// through the deps map (import path -> testdata directory), so tests model
// stdlib packages like "time" with small fakes instead of reaching into
// GOROOT. The pretend import path of the package under test is chosen by
// the caller, which is how scope (and out-of-scope) behavior is exercised.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ldsprefetch/internal/lint"
)

// Package names one testdata package for a multi-package run: the directory
// holding its sources and the pretend import path it is checked under.
type Package struct {
	Dir  string
	Path string
}

// Run analyzes the package in dir under the pretend import path pkgPath and
// compares diagnostics against the dir's // want comments. deps maps import
// paths appearing in the testdata to their defining testdata directories.
func Run(t *testing.T, a *lint.Analyzer, dir, pkgPath string, deps map[string]string) {
	t.Helper()
	RunPackages(t, a, []Package{{Dir: dir, Path: pkgPath}}, deps)
}

// RunPackages analyzes pkgs in the given order — dependencies first, exactly
// like a driver walking the import graph — with analyzer facts flowing
// between them, and compares the diagnostics of every in-scope package
// against the // want comments across all the packages' files. Out-of-scope
// packages run facts-only when the analyzer uses facts (so a `// want` in an
// out-of-scope file correctly fails: no diagnostic can match it).
func RunPackages(t *testing.T, a *lint.Analyzer, pkgs []Package, deps map[string]string) {
	t.Helper()
	fset, files, diags := analyze(t, a, pkgs, deps)

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := lineKey{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", key.file, key.line, d.Message)
		}
	}
	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.re)
			}
		}
	}
}

// Diagnostics runs the analyzer over pkgs like RunPackages but returns the
// raw diagnostics instead of checking // want comments. Tests use it to
// assert cross-analyzer properties, e.g. that walltime reports nothing on a
// package where nondetflow fires.
func Diagnostics(t *testing.T, a *lint.Analyzer, pkgs []Package, deps map[string]string) []lint.Diagnostic {
	t.Helper()
	_, _, diags := analyze(t, a, pkgs, deps)
	return diags
}

// analyze is the shared engine: hermetic type-checking of pkgs in order, one
// Pass per package with facts threaded through a lint.FactSet, diagnostics
// collected from in-scope reporting passes (including unused-suppression
// findings, mirroring the real drivers).
func analyze(t *testing.T, a *lint.Analyzer, pkgs []Package, deps map[string]string) (*token.FileSet, []*ast.File, []lint.Diagnostic) {
	t.Helper()
	allDeps := make(map[string]string, len(deps)+len(pkgs))
	for k, v := range deps {
		allDeps[k] = v
	}
	for _, p := range pkgs {
		allDeps[p.Path] = p.Dir
	}
	fset := token.NewFileSet()
	imp := &fakeImporter{fset: fset, deps: allDeps, loaded: map[string]*types.Package{}}

	facts := lint.FactSet{}
	var allFiles []*ast.File
	var diags []lint.Diagnostic
	for _, p := range pkgs {
		files, pkg, info, err := imp.check(p.Path, p.Dir)
		if err != nil {
			t.Fatalf("typecheck %s: %v", p.Dir, err)
		}
		allFiles = append(allFiles, files...)
		norm := lint.NormalizePkgPath(p.Path)
		inScope := a.Scope == nil || a.Scope(norm)
		if !inScope && !a.UsesFacts {
			continue
		}
		pass := &lint.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			PkgPath:   norm,
			FactsOnly: !inScope,
			Facts:     facts,
			Report:    func(d lint.Diagnostic) { diags = append(diags, d) },
		}
		if !inScope {
			pass.Report = func(lint.Diagnostic) {}
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if inScope {
			pass.ReportUnusedSuppressions()
		}
	}
	return fset, allFiles, diags
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// wantRE matches one backquoted or double-quoted pattern.
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

// collectWants parses // want comments into per-line expectations.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]*want {
	t.Helper()
	out := map[lineKey][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := lineKey{filepath.Base(pos.Filename), pos.Line}
				spec := c.Text[idx+len("// want "):]
				ms := wantRE.FindAllStringSubmatch(spec, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", key.file, key.line, c.Text)
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", key.file, key.line, pat, err)
					}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}

// fakeImporter resolves imports strictly through the deps map, so testdata
// stays hermetic (no GOROOT, no network).
type fakeImporter struct {
	fset   *token.FileSet
	deps   map[string]string
	loaded map[string]*types.Package
}

var _ types.Importer = (*fakeImporter)(nil)

func (fi *fakeImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.loaded[path]; ok {
		return pkg, nil
	}
	dir, ok := fi.deps[path]
	if !ok {
		return nil, fmt.Errorf("linttest: import %q not in deps map; add a fake package", path)
	}
	_, pkg, _, err := fi.check(path, dir)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// check parses and type-checks every .go file in dir as the package at path.
func (fi *fakeImporter) check(path, dir string) ([]*ast.File, *types.Package, *types.Info, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fi.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: fi}
	pkg, err := conf.Check(path, fi.fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	fi.loaded[path] = pkg
	return files, pkg, info, nil
}

// Importer exposes the hermetic importer for driver tests that need to
// type-check a package outside the Run flow.
func Importer(fset *token.FileSet, deps map[string]string) types.Importer {
	return &fakeImporter{fset: fset, deps: deps, loaded: map[string]*types.Package{}}
}
