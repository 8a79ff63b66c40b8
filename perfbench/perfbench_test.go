package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite pins.json and testdata/fig1_report.txt from one pass of every workload at the pinned input")

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runCLI runs the benchmark in-process and returns its summary line.
func runCLI(t *testing.T, args ...string) summary {
	t.Helper()
	var out, errb bytes.Buffer
	if code := cli(append(args, "--workdir", t.TempDir()), &out, &errb); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("perfbench %v: last line is not a summary: %v", args, err)
	}
	if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d failed=%d\n%s", args, s.Correct, s.Attempted, s.Failed, errb.String())
	}
	return s
}

// TestMetricsEmitted runs every workload of BENCHMARK.json at a tiny scale,
// untraced and traced, and checks that each emits exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestMetricsEmitted(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				s := runCLI(t, "--workload", w.Name, "--seed", "3", "--seconds", "0.01",
					"--scale", "0.02", "--trace", strconv.Itoa(trace))
				for _, m := range want {
					got, ok := s.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(s.Metrics), len(want))
				}
			})
		}
	}
}

// TestPins checks every workload against its pinned digests at the default
// seed and scale, or rewrites the pins with -update.
func TestPins(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("runs every workload at its default scale")
	}
	if !*update {
		for _, name := range workloadNames() {
			t.Run(name, func(t *testing.T) {
				runCLI(t, "--workload", name, "--seconds", "0.01")
			})
		}
		return
	}
	pf := pinFile{Seed: defaultSeed, Workloads: map[string]pinSet{}}
	for _, name := range workloadNames() {
		def := workloads[name]
		r := newRun(config{workload: name, seed: defaultSeed}, def, def.scale, t.TempDir(), io.Discard)
		r.gate.pins = nil
		if _, err := r.setupAll(); err != nil {
			t.Fatal(err)
		}
		r.b.pass(r)
		if r.gate.failed > 0 {
			t.Fatalf("%s: %d failed operations", name, r.gate.failed)
		}
		if sw, ok := r.b.(*sweep); ok {
			if err := os.WriteFile("testdata/fig1_report.txt", []byte(sw.lastReport), 0o644); err != nil {
				t.Fatal(err)
			}
			delete(r.gate.first, "report")
		}
		pf.Workloads[name] = pinSet{Scale: def.scale, Digests: r.gate.first}
	}
	b, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("pins.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLayerOfStack pins the attribution rule of the self-time shares.
func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "ldsprefetch/internal/mem.(*Memory).Clone", "ldsprefetch/internal/trace.(*Trace).Clone"}, "mem"},
		{[]string{"ldsprefetch/internal/cpu/ooo.(*Core).step", "ldsprefetch/internal/sim.RunSingleSpec"}, "cpu_ooo"},
		{[]string{"ldsprefetch/internal/sim/engine.Run.func1"}, "engine"},
		{[]string{"ldsprefetch/internal/workload/serverload.buildBTree"}, "workload"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "ldsprefetch/internal/memsys.(*MemSys).Access"}, "gc"},
		{[]string{"ldsprefetch/internal/telemetry.(*Recorder).Install"}, "other"},
		{[]string{"runtime.futex", "main.main"}, "other"},
	} {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
