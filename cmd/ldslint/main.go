// Command ldslint runs the repository's determinism-and-simulation-safety
// analyzer suite (internal/lint): maporder, walltime, checkedmath,
// observereffect, and the interprocedural nondetflow and lockcheck. See
// LINTING.md for the catalog and the annotation escape hatch.
//
// Usage:
//
//	ldslint [-timings] [-<analyzer>=false] [package pattern ...]
//
// The patterns default to ./... and are resolved with `go list -test -deps
// -export`, so test files are linted too, under the rules of the package
// they test. Each analyzer has a boolean flag (e.g. -maporder=false) to
// disable it; -timings prints per-analyzer wall time to stderr. The exit
// code is 0 when clean, 1 on a tool failure and 2 when findings were
// reported.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ldsprefetch/internal/lint"
	"ldsprefetch/internal/lint/driver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("ldslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ldslint [flags] [package pattern ...]\n\nflags:\n")
		fmt.Fprintf(stderr, "  -timings\n        print per-analyzer wall time to stderr\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  -%s=false\n        disable %s: %s\n", a.Name, a.Name, a.Doc)
		}
	}
	timings := fs.Bool("timings", false, "print per-analyzer wall time to stderr")
	enabled := map[string]*bool{}
	for _, a := range lint.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := driver.LoadAndAnalyze(patterns, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "ldslint: %v\n", err)
		return 1
	}
	if *timings {
		var names []string
		for name := range res.Timings {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stderr, "ldslint: %-14s %8.1fms\n", name, float64(res.Timings[name].Microseconds())/1000)
		}
	}
	for _, d := range res.Diags {
		fmt.Fprintln(stderr, d)
	}
	if len(res.Diags) > 0 {
		return 2
	}
	return 0
}
