// Command ldslint runs the repository's determinism-and-simulation-safety
// analyzer suite (internal/lint): maporder, walltime, checkedmath,
// observereffect, and the interprocedural nondetflow and lockcheck. See
// LINTING.md for the catalog and the annotation escape hatch.
//
// It runs two ways:
//
//	ldslint ./...                              # standalone, via go list
//	go vet -vettool=$(which ldslint) ./...     # as a vet tool
//
// As a vet tool it implements cmd/go's vet protocol: -V=full for the tool
// build ID, -flags to describe its flags as JSON, and a single *.cfg
// positional argument for a per-package check, with cross-package analyzer
// facts carried in the vetx files the protocol already provides for. Each
// analyzer has a boolean flag (e.g. -maporder=false) to disable it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ldsprefetch/internal/lint"
	"ldsprefetch/internal/lint/driver"
)

// version participates in cmd/go's action cache key for vet results; bump it
// when analyzer behavior changes so cached "clean" verdicts (and vetx fact
// files) are invalidated. The TestAnalyzerSourcesPinnedToVersion guard in
// this package fails when analyzer sources change without a bump.
const version = "2.0.4"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// cmd/go probes the tool identity with -V=full before anything else; the
	// reply must be "<name> version <non-devel-version>" (see
	// cmd/go/internal/work.(*Builder).toolID).
	for _, arg := range args {
		if arg == "-V=full" || arg == "-V" {
			fmt.Fprintf(stdout, "ldslint version %s\n", version)
			return 0
		}
	}

	fs := flag.NewFlagSet("ldslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ldslint [flags] [package pattern ...]\n")
		fmt.Fprintf(stderr, "       go vet -vettool=$(which ldslint) [flags] [packages]\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  -%s=false\n        disable %s: %s\n", a.Name, a.Name, a.Doc)
		}
	}
	printFlags := fs.Bool("flags", false, "describe flags as JSON (vet tool protocol)")
	timings := fs.Bool("timings", false, "print per-analyzer wall time to stderr (standalone mode)")
	enabled := map[string]*bool{}
	for _, a := range lint.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *printFlags {
		// cmd/go's `go vet` always queries the tool's flags so it can accept
		// them on its own command line.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		out := []jsonFlag{{Name: "timings", Bool: true, Usage: "print per-analyzer wall time (standalone mode only)"}}
		for _, a := range lint.All() {
			out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
		}
		b, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			fmt.Fprintf(stderr, "ldslint: %v\n", err)
			return 1
		}
		b = append(b, '\n')
		stdout.Write(b)
		return 0
	}

	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	positional := fs.Args()
	if len(positional) == 1 && strings.HasSuffix(positional[0], ".cfg") {
		return driver.Unitchecker(stderr, positional[0], analyzers)
	}

	if len(positional) == 0 {
		positional = []string{"./..."}
	}
	res, err := driver.LoadAndAnalyze(positional, analyzers)
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
