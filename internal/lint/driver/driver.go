// Package driver loads type-checked packages and runs the internal/lint
// analyzer suite over them for cmd/ldslint. The loader (golist.go) resolves
// package patterns, test variants and export data through one
// `go list -test -deps -export` call, then type-checks each package from
// source against its dependencies' export data with the standard library's
// gc importer, in dependency order, threading one in-memory fact set
// through the run. It keeps no state between runs, so there is no cache
// that can serve a verdict computed by an older analyzer build.
//
// Like the analyzers, the driver has no dependency outside the standard
// library (the build environment vendors no modules).
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"time"

	"ldsprefetch/internal/lint"
)

// Diagnostic is one finding with its resolved source position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"position"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	PkgPath string // normalized import path (test variants stripped)
}

// AnalyzeOpts configures one Analyze call.
type AnalyzeOpts struct {
	// Facts is the cross-package fact store: analyzers read their
	// dependencies' facts from it and their exports are recorded into it
	// under the package's normalized path.
	Facts lint.FactSet
	// FactsOnly runs the package purely as a dependency: only fact-using
	// analyzers run, and no diagnostics are returned. Used for packages
	// that are out of every reporting scope (or are dependency-only) but
	// whose facts importers need.
	FactsOnly bool
	// SuppressFactExport drops the package's own fact exports. The loader
	// sets it for test variants ("p [p.test]" and "p_test"), whose
	// normalized path collides with the package under test.
	SuppressFactExport bool
	// Timings, when non-nil, accumulates per-analyzer wall time.
	Timings map[string]time.Duration
}

// InScope reports whether any of the analyzers applies to the normalized
// import path. The loader uses it to skip type-checking packages no
// analyzer cares about.
func InScope(pkgPath string, analyzers []*lint.Analyzer) bool {
	for _, a := range analyzers {
		if a.Scope == nil || a.Scope(pkgPath) {
			return true
		}
	}
	return false
}

// usesFacts reports whether any analyzer needs dependency-order fact passes.
func usesFacts(analyzers []*lint.Analyzer) bool {
	for _, a := range analyzers {
		if a.UsesFacts {
			return true
		}
	}
	return false
}

// Analyze runs the analyzers over pkg, returning diagnostics sorted by
// position. Analyzers whose Scope excludes the package still run facts-only
// when they use facts; reporting passes also surface unused suppressions and
// unknown annotation markers.
func Analyze(pkg *Package, analyzers []*lint.Analyzer, opts AnalyzeOpts) []Diagnostic {
	var out []Diagnostic
	reported := false
	for _, a := range analyzers {
		inScope := a.Scope == nil || a.Scope(pkg.PkgPath)
		factsOnly := opts.FactsOnly || !inScope
		if factsOnly && !a.UsesFacts {
			continue
		}
		start := time.Now()
		pass := &lint.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			PkgPath:   pkg.PkgPath,
			FactsOnly: factsOnly,
			Facts:     opts.Facts,
			Report: func(d lint.Diagnostic) {
				out = append(out, Diagnostic{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
			SuppressFactExport: opts.SuppressFactExport,
		}
		if factsOnly {
			pass.Report = func(lint.Diagnostic) {}
		}
		if err := a.Run(pass); err != nil {
			out = append(out, Diagnostic{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("internal error: %v", err),
			})
		}
		if !factsOnly {
			pass.ReportUnusedSuppressions()
			reported = true
		}
		if opts.Timings != nil {
			opts.Timings[a.Name] += time.Since(start)
		}
	}
	if reported {
		for _, d := range lint.UnknownMarkerDiagnostics(pkg.Files) {
			out = append(out, Diagnostic{
				Analyzer: "annotations",
				Position: pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Position, out[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// check parses and type-checks one package from source files, resolving
// imports through export data.
func check(fset *token.FileSet, pkgPath, goVersion string, goFiles []string,
	importMap, exportFiles map[string]string) (*Package, error) {

	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files", pkgPath)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if eff, ok := importMap[path]; ok && eff != "" {
			path = eff
		}
		file := exportFiles[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: goVersion,
	}
	norm := lint.NormalizePkgPath(pkgPath)
	pkg, err := conf.Check(norm, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Pkg: pkg, Info: info, PkgPath: norm}, nil
}
