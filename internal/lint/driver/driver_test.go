package driver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldsprefetch/internal/lint"
)

// writeTestModule lays out a small module with a cross-package taint chain:
// testmod/util (outside every analyzer scope) returns map-iteration-ordered
// keys, and testmod/internal/memsys (a nondetflow sink) calls it. Only the
// interprocedural facts flow can connect the two. extra adds or replaces
// files.
func writeTestModule(t *testing.T, extra map[string]string) string {
	t.Helper()
	files := map[string]string{
		"go.mod": "module testmod\n\ngo 1.22\n",
		"util/util.go": `package util

func RawKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
`,
		"internal/memsys/mem.go": `package memsys

import "testmod/util"

func Keys(m map[string]int) []string {
	return util.RawKeys(m)
}

func Size(m map[string]int) int {
	return util.Count(m)
}
`,
	}
	for name, content := range extra {
		files[name] = content
	}
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadAndAnalyzeCrossPackageFacts runs the standalone loader over the
// temp module: the only finding must be nondetflow's cross-package taint
// report in the sink package.
func TestLoadAndAnalyzeCrossPackageFacts(t *testing.T) {
	dir := writeTestModule(t, nil)
	res, err := LoadAndAnalyzeIn(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(res.Diags), res.Diags)
	}
	d := res.Diags[0]
	if d.Analyzer != "nondetflow" {
		t.Errorf("analyzer = %q, want nondetflow", d.Analyzer)
	}
	if !strings.Contains(d.Message, "util.RawKeys returns a value derived from map iteration order") {
		t.Errorf("unexpected message: %s", d.Message)
	}
	if !strings.HasSuffix(d.Position.Filename, filepath.Join("internal", "memsys", "mem.go")) {
		t.Errorf("finding at %s, want internal/memsys/mem.go", d.Position.Filename)
	}
	if res.Timings["nondetflow"] <= 0 {
		t.Errorf("no wall time recorded for nondetflow: %v", res.Timings)
	}
}

// TestLoadAndAnalyzeTestVariants lints a sink package with an in-package
// _test.go file and an external memsys_test package, plus two importers of
// the sink: stream, which has tests of its own, and cpu, which has none.
// go list -test reports memsys three times ("memsys", "memsys
// [memsys.test]", "memsys_test [memsys.test]"), all normalizing to one
// path, and the importers again as the foreign variants "stream
// [memsys.test]" and "cpu [memsys.test]" the external test links. Each
// finding must be reported exactly once:
//   - mem.go's only from the test-augmented variant;
//   - cpu.go's from plain cpu, which a foreign variant must not supersede;
//   - stream.go's at all, because the external test package, analyzed
//     before stream's own test variant, must not overwrite memsys's facts
//     with its own.
func TestLoadAndAnalyzeTestVariants(t *testing.T) {
	dir := writeTestModule(t, map[string]string{
		"internal/memsys/mem_internal_test.go": `package memsys

import "time"

func seed() int64 { return time.Now().UnixNano() }
`,
		"internal/memsys/mem_external_test.go": `package memsys_test

import (
	"testmod/internal/cpu"
	"testmod/internal/memsys"
	"testmod/internal/stream"
)

var _, _ = cpu.Order, stream.Order

func order(m map[string]int) []string {
	return memsys.Keys(m)
}
`,
		"internal/stream/stream.go": `package stream

import "testmod/internal/memsys"

func Order(m map[string]int) []string {
	return memsys.Keys(m)
}
`,
		"internal/stream/stream_test.go": "package stream\n\nvar _ = Order\n",
		"internal/cpu/cpu.go": `package cpu

import "testmod/internal/memsys"

func Order(m map[string]int) []string {
	return memsys.Keys(m)
}
`,
	})
	res, err := LoadAndAnalyzeIn(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"mem.go":               "nondetflow",
		"mem_internal_test.go": "walltime",
		"mem_external_test.go": "nondetflow",
		"stream.go":            "nondetflow",
		"cpu.go":               "nondetflow",
	}
	got := map[string][]string{}
	for _, d := range res.Diags {
		name := filepath.Base(d.Position.Filename)
		got[name] = append(got[name], d.Analyzer)
	}
	for name, analyzer := range want {
		if g := got[name]; len(g) != 1 || g[0] != analyzer {
			t.Errorf("%s: got findings %v, want exactly one %s finding", name, g, analyzer)
		}
	}
	if len(res.Diags) != len(want) {
		t.Errorf("got %d diagnostics, want %d: %v", len(res.Diags), len(want), res.Diags)
	}
}

// TestLoadAndAnalyzeTypecheckFailure: a package that does not type-check is
// a tool failure whose error names the package, not a clean run.
func TestLoadAndAnalyzeTypecheckFailure(t *testing.T) {
	dir := writeTestModule(t, map[string]string{
		"internal/memsys/broken.go": "package memsys\n\nfunc f() { undefined() }\n",
	})
	_, err := LoadAndAnalyzeIn(dir, []string{"./..."}, lint.All())
	if err == nil {
		t.Fatal("LoadAndAnalyzeIn succeeded on a package that does not type-check")
	}
	if !strings.Contains(err.Error(), "testmod/internal/memsys") {
		t.Errorf("error does not name the broken package: %v", err)
	}
}
