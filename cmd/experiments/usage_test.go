package main

import (
	"flag"
	"go/parser"
	"go/token"
	"io"
	"strings"
	"testing"

	"ldsprefetch/internal/exp"
)

// TestUsageLines checks every `experiments …` line of the package comment
// without running anything: each flag exists, each -exp id resolves through
// exp.Plan, and inline -spec JSON parses and validates. File-path arguments
// (a -spec file, output directories) are checked by flag name only.
func TestUsageLines(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		rest, ok := strings.CutPrefix(line, "\texperiments ")
		if !ok {
			continue
		}
		n++
		rest, _, _ = strings.Cut(rest, "#")
		rest = strings.TrimSpace(rest)
		args := strings.Fields(rest)
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := defineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Errorf("experiments %s: %v", rest, err)
			continue
		}
		if fs.NArg() > 0 {
			t.Errorf("experiments %s: stray arguments %q", rest, fs.Args())
		}
		if o.id != "" {
			if _, err := exp.Plan(o.id); err != nil {
				t.Errorf("experiments %s: %v", rest, err)
			}
		}
		if strings.HasPrefix(strings.TrimSpace(o.spec), "{") {
			sp, err := exp.LoadSpec(o.spec)
			if err == nil {
				err = sp.Validate()
			}
			if err != nil {
				t.Errorf("experiments %s: %v", rest, err)
			}
		}
	}
	if n == 0 {
		t.Fatal("no usage lines in the package comment")
	}
}
