// Package lint is the repository's determinism-and-simulation-safety
// analyzer suite. It mechanizes the invariants the reproduction's headline
// results rest on — bit-identical, replayable simulations — so that hazards
// are caught at vet time instead of at golden-test-diff time.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) but is self-contained on the standard
// library: the build environment vendors no third-party modules, and the
// analyzers need nothing beyond go/ast and go/types. cmd/ldslint runs the
// suite through the loader in internal/lint/driver; see LINTING.md for the
// catalog, the rationale per rule, the annotation escape hatch, and how to
// add an analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one lint rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is a one-paragraph description shown by `ldslint -help`.
	Doc string
	// Marker is the suppression-annotation marker: a `//ldslint:<marker>
	// <reason>` comment on the flagged line (or the line above) suppresses
	// the diagnostic. Empty means the marker equals Name (the common case;
	// maporder's historical marker is "ordered").
	Marker string
	// Scope reports whether the analyzer applies to the package with the
	// given import path. Drivers normalize test-variant paths (the
	// "p [p.test]" and "p_test" forms) before calling it.
	Scope func(pkgPath string) bool
	// UsesFacts marks an interprocedural analyzer: the driver runs it over
	// every module-local package in dependency order — facts-only (no
	// diagnostics) outside Scope — so facts exported by dependencies are
	// available when their importers are analyzed.
	UsesFacts bool
	// Run analyzes one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// marker returns the analyzer's effective annotation marker.
func (a *Analyzer) marker() string {
	if a.Marker != "" {
		return a.Marker
	}
	return a.Name
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the normalized import path (see NormalizePkgPath).
	PkgPath string
	Report  func(Diagnostic)

	// FactsOnly marks a dependency pass: the analyzer runs to compute and
	// export facts for importers, but the package itself is out of scope, so
	// Report drops diagnostics. Analyzers may skip their reporting phase.
	FactsOnly bool
	// Facts is the run's cross-package fact store, which every driver
	// supplies: the pass reads its dependencies' facts from it and records
	// its own under PkgPath.
	Facts FactSet
	// SuppressFactExport drops the package's own fact exports. Drivers set
	// it for test variants ("p [p.test]" and "p_test"), whose normalized
	// path collides with the package under test, so the plain package's
	// facts stay authoritative for importers.
	SuppressFactExport bool

	// suppressions indexes //ldslint: comments by file line, built lazily.
	suppressions map[*token.File]map[int]*annotation
}

// FactSet is every analyzed package's facts, keyed by normalized import path
// and then by analyzer name: the in-memory store a driver threads through one
// run, analyzing packages in dependency order so each package's facts are
// recorded before its importers read them. A fact is whatever typed value
// its analyzer exports; only that analyzer reads it back.
type FactSet map[string]map[string]any

// ImportedFacts returns this analyzer's facts for the dependency package at
// the normalized import path pkgPath, or nil when it exported none.
func (p *Pass) ImportedFacts(pkgPath string) any {
	return p.Facts[pkgPath][p.Analyzer.Name]
}

// SetFacts records facts as this analyzer's facts for the current package,
// unless the pass suppresses fact export.
func (p *Pass) SetFacts(facts any) {
	if p.SuppressFactExport {
		return
	}
	pf := p.Facts[p.PkgPath]
	if pf == nil {
		pf = map[string]any{}
		p.Facts[p.PkgPath] = pf
	}
	pf[p.Analyzer.Name] = facts
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// annotation is one parsed //ldslint:<marker> comment.
type annotation struct {
	marker string
	reason string
	pos    token.Pos
	used   bool
}

// annotationPrefix introduces a suppression comment.
const annotationPrefix = "//ldslint:"

// parseAnnotation parses c as an //ldslint: comment, returning nil when it
// is not one. A trailing "// want ..." part (the linttest expectation
// syntax) is not part of the reason.
func parseAnnotation(c *ast.Comment) *annotation {
	text := c.Text
	if !strings.HasPrefix(text, annotationPrefix) {
		return nil
	}
	rest := text[len(annotationPrefix):]
	marker := rest
	reason := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		marker, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if i := strings.Index(reason, "// want"); i >= 0 {
		reason = strings.TrimSpace(reason[:i])
	}
	return &annotation{marker: marker, reason: reason, pos: c.Pos()}
}

// buildSuppressions indexes every //ldslint: comment in the pass's files.
func (p *Pass) buildSuppressions() {
	p.suppressions = make(map[*token.File]map[int]*annotation)
	for _, f := range p.Files {
		tf := p.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		lines := p.suppressions[tf]
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a := parseAnnotation(c)
				if a == nil {
					continue
				}
				if lines == nil {
					lines = make(map[int]*annotation)
					p.suppressions[tf] = lines
				}
				lines[tf.Line(c.Pos())] = a
			}
		}
	}
}

// Suppressed reports whether a diagnostic at n's position is suppressed by a
// `//ldslint:<marker> <reason>` annotation on the same line or the line
// immediately above. An annotation without a reason does not count as a
// justification: Suppressed still returns true for the original diagnostic,
// but reports the annotation itself, so the build fails until a reason is
// written.
func (p *Pass) Suppressed(n ast.Node, marker string) bool {
	if p.suppressions == nil {
		p.buildSuppressions()
	}
	tf := p.Fset.File(n.Pos())
	if tf == nil {
		return false
	}
	lines := p.suppressions[tf]
	if lines == nil {
		return false
	}
	line := tf.Line(n.Pos())
	for _, l := range [2]int{line, line - 1} {
		a := lines[l]
		if a == nil || a.marker != marker {
			continue
		}
		if a.reason == "" && !a.used {
			p.Reportf(a.pos, "ldslint:%s annotation requires a reason (\"//ldslint:%s <why this is safe>\")", marker, marker)
		}
		a.used = true
		return true
	}
	return false
}

// HasAnnotation reports whether n's line (or the line above) carries a
// `//ldslint:<marker>` annotation, marking it used without reporting. It is
// for analyzers that *consult* another analyzer's marker (e.g. nondetflow
// honoring //ldslint:walltime at a taint source) rather than suppress their
// own diagnostic: the reason-required check stays with the owning analyzer.
func (p *Pass) HasAnnotation(n ast.Node, marker string) bool {
	if p.suppressions == nil {
		p.buildSuppressions()
	}
	tf := p.Fset.File(n.Pos())
	if tf == nil {
		return false
	}
	lines := p.suppressions[tf]
	if lines == nil {
		return false
	}
	line := tf.Line(n.Pos())
	for _, l := range [2]int{line, line - 1} {
		if a := lines[l]; a != nil && a.marker == marker {
			a.used = true
			return true
		}
	}
	return false
}

// declarationMarkers are annotation markers that declare a property for an
// analyzer to *check* (lockcheck's field and function contracts) rather than
// suppress a diagnostic. They are exempt from unused-suppression reporting:
// their use is established by the declaration site, not by a silenced
// finding.
var declarationMarkers = map[string]bool{
	"guardedby": true,
	"holds":     true,
}

// ReportUnusedSuppressions reports every annotation carrying this analyzer's
// marker that no diagnostic consulted during the pass: a stale escape hatch
// is itself a finding, so suppressions are cleaned up instead of
// accumulating. Drivers call it once per (analyzer, package) after Run, on
// reporting passes only.
func (p *Pass) ReportUnusedSuppressions() {
	if p.suppressions == nil {
		return // Run consulted no annotations, so none were parsed either
	}
	marker := p.Analyzer.marker()
	if declarationMarkers[marker] {
		return
	}
	var stale []*annotation
	for _, lines := range p.suppressions {
		for _, a := range lines {
			if a.marker == marker && !a.used {
				stale = append(stale, a)
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].pos < stale[j].pos })
	for _, a := range stale {
		p.Reportf(a.pos,
			"unused suppression: no %s diagnostic fires here anymore; delete the //ldslint:%s annotation",
			p.Analyzer.Name, marker)
	}
}

// KnownMarkers returns every annotation marker the suite understands: each
// analyzer's suppression marker plus the declaration markers. Drivers use it
// to flag typo'd //ldslint: comments, which would otherwise be silent holes.
func KnownMarkers() map[string]bool {
	out := make(map[string]bool, len(declarationMarkers)+4)
	for m := range declarationMarkers {
		out[m] = true
	}
	for _, a := range All() {
		out[a.marker()] = true
	}
	return out
}

// UnknownMarkerDiagnostics scans files for //ldslint: comments whose marker
// no analyzer owns — a typo like //ldslint:guardeby silently disables the
// protection its author intended.
func UnknownMarkerDiagnostics(files []*ast.File) []Diagnostic {
	known := KnownMarkers()
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if a := parseAnnotation(c); a != nil && !known[a.marker] {
					out = append(out, Diagnostic{
						Pos:     a.pos,
						Message: fmt.Sprintf("unknown annotation marker %q: the suite understands %s", a.marker, knownMarkerList()),
					})
				}
			}
		}
	}
	return out
}

func knownMarkerList() string {
	var names []string
	for m := range KnownMarkers() {
		names = append(names, m)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// NormalizePkgPath maps test-variant import paths to the path of the package
// under test: "p [p.test]" (internal test variant) and "p_test" (external
// test package) both normalize to "p". Scope functions see normalized paths
// so test files are linted under the same rules as the package they test.
func NormalizePkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}

// suffixScope returns a Scope function matching import paths that equal one
// of the suffixes or end in "/"+suffix. Matching on suffixes keeps the scope
// independent of the module path, which also lets analyzer tests use
// synthetic paths.
func suffixScope(suffixes ...string) func(string) bool {
	return func(pkgPath string) bool {
		for _, s := range suffixes {
			if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
				return true
			}
		}
		return false
	}
}

// simCorePackages are the packages whose execution is inside the simulated
// machine or on the serialization path of its results: nondeterminism here
// changes reported numbers or cache keys. Together with determinismPackages
// they must cover every module package internal/sim links
// (TestDeterminismScopeCoversSimDeps).
var simCorePackages = []string{
	"internal/sim",
	"internal/sim/engine",
	"internal/memsys",
	"internal/dram",
	"internal/cpu",
	"internal/cache",
	"internal/prefetch",
	"internal/stream",
	"internal/baselines/dbp",
	"internal/baselines/fdp",
	"internal/baselines/ghb",
	"internal/baselines/hwfilter",
	"internal/baselines/markov",
	"internal/baselines/pab",
	"internal/telemetry",
	"internal/mem",
	"internal/heap64",
	"internal/trace",
	"internal/workload",
	"internal/workload/serverload",
	"internal/tracefile",
}

// determinismPackages extends the simulation core with the packages that
// aggregate, profile, and serialize its results.
var determinismPackages = append([]string{
	"internal/exp",
	"internal/profiling",
	"internal/core",
}, simCorePackages...)

// servingPackages further extends the scope with the orchestration layer:
// the scheduler, the result store, and the HTTP job service. Map-iteration
// order here can leak into journal contents, sweep listings, or rendered
// metrics, so maporder applies; walltime does not — the serving layer
// legitimately reads the clock for job timeouts, journal timestamps, and
// latency histograms.
var servingPackages = append([]string{
	"internal/jobs",
	"internal/server",
}, determinismPackages...)

// nondetflowPackages are the sinks of the cross-package taint analysis: the
// determinism scope plus the cache-key encoding in internal/jobs. jobs reads
// the clock legitimately (walltime excludes it), but a call from jobs to a
// helper whose *result* is wall-clock-derived can reach the canonical key
// encoding, so tainted calls are flagged there too.
var nondetflowPackages = append([]string{
	"internal/jobs",
}, determinismPackages...)

// lockcheckPackages are the packages with mutex-guarded shared state: the
// scheduler and result store, the job service's sweep table, the parallel
// engine, and the workload registry.
var lockcheckPackages = []string{
	"internal/jobs",
	"internal/server",
	"internal/sim/engine",
	"internal/workload",
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		WallTime,
		CheckedMath,
		ObserverEffect,
		NondetFlow,
		LockCheck,
	}
}
