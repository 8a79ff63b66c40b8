package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ldsprefetch/internal/lint"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Export     string
	DepOnly    bool
	Standard   bool
	Module     *struct{ GoVersion string }
}

// Result is one standalone run: the diagnostics plus per-analyzer wall time.
type Result struct {
	Diags   []Diagnostic
	Timings map[string]time.Duration
}

// LoadAndAnalyze resolves the patterns with `go list -test -deps -export`,
// type-checks the matched packages, and runs the analyzers. Test files are
// linted too, via the test variants go list synthesizes ("p [p.test]" and
// "p_test"), under the same rules as the package they test.
//
// When the suite contains fact-using analyzers, every module-local package
// in the dependency closure is analyzed in topological (dependencies-first)
// order — facts-only for packages that are out of scope or matched only as
// dependencies — so cross-package facts are always available when a
// package's importers are checked.
func LoadAndAnalyze(patterns []string, analyzers []*lint.Analyzer) (*Result, error) {
	return LoadAndAnalyzeIn("", patterns, analyzers)
}

// LoadAndAnalyzeIn is LoadAndAnalyze with go list run in dir (empty means
// the current directory); tests use it to analyze temporary modules.
func LoadAndAnalyzeIn(dir string, patterns []string, analyzers []*lint.Analyzer) (*Result, error) {
	args := append([]string{
		"list", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,Name,GoFiles,CgoFiles,Imports,ImportMap,Export,DepOnly,Standard,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}

	var pkgs []*listPackage
	exports := map[string]string{} // import path -> export data file
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}

	// A package with tests appears twice: plain ("p") and as the
	// test-augmented variant ("p [p.test]") whose GoFiles are a superset.
	// Diagnostics come from the augmented variant only, so each file is
	// checked once; facts come from the plain variant, which is what
	// importers outside p's own tests compile against.
	augmented := map[string]bool{}
	for _, p := range pkgs {
		if base, ok := ownTestVariant(p.ImportPath); ok && base != p.ImportPath {
			augmented[base] = true
		}
	}

	var units []*listPackage
	factProvider := map[string]*listPackage{} // plain import path -> unit whose facts represent it
	for _, p := range pkgs {
		if p.Standard || p.Name == "" ||
			strings.HasSuffix(p.ImportPath, ".test") || len(p.CgoFiles) > 0 {
			continue
		}
		base, ok := ownTestVariant(p.ImportPath)
		if !ok {
			continue // a foreign test variant such as "q [p.test]"
		}
		units = append(units, p)
		if base == p.ImportPath { // plain package
			factProvider[base] = p
		}
	}

	// Topological order: dependencies before importers, so fact passes see
	// their imports' facts. Bracketed imports ("q [p.test]") resolve to the
	// plain package, and a test-augmented variant depends on its own plain
	// variant, which keeps the graph acyclic even when a test dependency
	// imports the package under test.
	const (
		visiting = 1
		done     = 2
	)
	state := map[*listPackage]int{}
	order := make([]*listPackage, 0, len(units))
	var visit func(p *listPackage)
	visit = func(p *listPackage) {
		if state[p] != 0 {
			return
		}
		state[p] = visiting
		if base, _ := ownTestVariant(p.ImportPath); base != p.ImportPath {
			if dep := factProvider[strings.TrimSuffix(base, "_test")]; dep != nil {
				visit(dep)
			}
		}
		for _, imp := range p.Imports {
			if i := strings.Index(imp, " ["); i >= 0 {
				imp = imp[:i]
			}
			if dep := factProvider[imp]; dep != nil {
				visit(dep)
			}
		}
		state[p] = done
		order = append(order, p)
	}
	for _, p := range units {
		visit(p)
	}

	needFacts := usesFacts(analyzers)
	res := &Result{Timings: map[string]time.Duration{}}
	facts := lint.FactSet{}
	fset := token.NewFileSet()
	for _, p := range order {
		// Reporting units are the pattern-matched packages, with the plain
		// variant superseded by its test-augmented twin.
		norm := lint.NormalizePkgPath(p.ImportPath)
		reporting := !p.DepOnly && !augmented[p.ImportPath] && InScope(norm, analyzers)
		if !reporting && !needFacts {
			continue
		}
		goVersion := ""
		if p.Module != nil && p.Module.GoVersion != "" {
			goVersion = "go" + p.Module.GoVersion
		}
		var files []string
		for _, f := range p.GoFiles {
			if !filepath.IsAbs(f) {
				f = filepath.Join(p.Dir, f)
			}
			files = append(files, f)
		}
		pkg, err := check(fset, p.ImportPath, goVersion, files, p.ImportMap, exports)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		base, _ := ownTestVariant(p.ImportPath)
		diags := Analyze(pkg, analyzers, AnalyzeOpts{
			Facts:     facts,
			FactsOnly: !reporting,
			// "p [p.test]" and "p_test [p.test]" normalize to "p": keep
			// the plain variant's facts authoritative for importers.
			SuppressFactExport: base != p.ImportPath,
			Timings:            res.Timings,
		})
		res.Diags = append(res.Diags, diags...)
	}
	return res, nil
}

// ownTestVariant classifies an import path from `go list -test` output: it
// returns the path without its bracketed suffix and true for a plain
// package ("p"), its internal test variant ("p [p.test]"), or its external
// test package ("p_test [p.test]"); it returns false for a foreign variant
// like "q [p.test]" (a dependency rebuilt against p's test files), which is
// no test build of q: taken for one, it would supersede plain q as q's
// reporting unit although it is only a dependency, dropping q's findings.
func ownTestVariant(importPath string) (base string, ok bool) {
	i := strings.Index(importPath, " [")
	if i < 0 {
		return importPath, true
	}
	base = importPath[:i]
	inner := strings.TrimSuffix(importPath[i+2:], "]")
	if inner == strings.TrimSuffix(base, "_test")+".test" {
		return base, true
	}
	return "", false
}
