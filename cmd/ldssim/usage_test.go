package main

import (
	"flag"
	"go/parser"
	"go/token"
	"io"
	"strings"
	"testing"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/workload"
)

// TestUsageLines checks every `ldssim …` line of the package comment
// without simulating: each flag exists, each -bench name is a registered
// workload, and the flags build a valid sim.Spec — -config names a
// configuration, inline -spec JSON parses and validates, and -core with
// -core-opts makes a valid core model. File-path arguments (a -spec file, a
// -replay capture, output directories) are checked by flag name only.
func TestUsageLines(t *testing.T) {
	lines := usageLines(t)
	if len(lines) == 0 {
		t.Fatal("no usage lines in the package comment")
	}
	for _, args := range lines {
		fs := flag.NewFlagSet("ldssim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := defineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Errorf("ldssim %s: %v", strings.Join(args, " "), err)
			continue
		}
		if fs.NArg() > 0 {
			t.Errorf("ldssim %s: stray arguments %q", strings.Join(args, " "), fs.Args())
		}
		for _, b := range strings.Split(o.bench, ",") {
			if _, err := workload.Get(b); err != nil {
				t.Errorf("ldssim %s: %v", strings.Join(args, " "), err)
			}
		}
		if o.spec != "" && !strings.HasPrefix(strings.TrimSpace(o.spec), "{") {
			continue // a spec file: checked by flag name only
		}
		if _, err := o.runSpec(core.NewHintTable); err != nil {
			t.Errorf("ldssim %s: %v", strings.Join(args, " "), err)
		}
	}
}

// usageLines returns the arguments of each tab-indented "ldssim …" line of
// main.go's package comment, split into words the way a shell splits them:
// single quotes group a word, and a word starting with # begins a comment.
func usageLines(t *testing.T) [][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if rest, ok := strings.CutPrefix(line, "\tldssim "); ok {
			out = append(out, shellWords(rest))
		}
	}
	return out
}

func shellWords(s string) []string {
	var (
		words         []string
		w             strings.Builder
		inWord, quote bool
	)
	for _, r := range s {
		switch {
		case quote && r == '\'':
			quote = false
		case quote:
			w.WriteRune(r)
		case r == '\'':
			quote, inWord = true, true
		case r == '#' && !inWord:
			return words
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, w.String())
				w.Reset()
				inWord = false
			}
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}
