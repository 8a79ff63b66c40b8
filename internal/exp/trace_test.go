package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// traceSpec is a throttled hybrid run small enough for tests but with a
// short feedback interval so the trace holds many interval records. It
// avoids profiling hints so the run depends only on the seeded workload.
func traceSpec() sim.Spec {
	sp := sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")
	sp.IntervalLen = 128
	sp.Trace = true
	return sp
}

func traceParams() workload.Params { return workload.Params{Scale: 0.05, Seed: 1} }

func runTraced(t *testing.T) sim.Result {
	t.Helper()
	r, err := sim.RunSingleSpec("mst", traceParams(), traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil {
		t.Fatal("Spec.Trace did not produce a telemetry trace")
	}
	return r
}

// jsonKeys returns the sorted top-level keys of one JSONL line.
func jsonKeys(t *testing.T, line []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("invalid JSONL line %q: %v", line, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The documented schemas (OBSERVABILITY.md). Changing either list is a
// schema change: update OBSERVABILITY.md and bump TraceSchemaVersion.
var (
	wantIntervalKeys = []string{
		"bench", "bpki", "bus_transfers", "cycle", "demand_misses",
		"interval", "mshr_occupancy", "pf_backlog_cycles", "pfq_occupancy",
		"reqbuf_occupancy", "retired", "setup", "sources",
	}
	wantSourceKeys = []string{"accuracy", "coverage", "issued", "level", "src", "used"}
	wantEventKeys  = []string{
		"bench", "case", "decision", "interval", "new_level", "old_level",
		"own_accuracy", "own_coverage", "rival_coverage", "setup", "src",
	}
)

// TestTraceSchemaGolden pins the JSONL schemas: every interval line, source
// object, and event line must carry exactly the documented keys, and the
// series must be a well-formed time series (contiguous intervals, monotone
// cycles, legal heuristic cases).
func TestTraceSchemaGolden(t *testing.T) {
	r := runTraced(t)
	var iv, ev bytes.Buffer
	if err := EncodeIntervals(&iv, r.Trace); err != nil {
		t.Fatal(err)
	}
	if err := EncodeEvents(&ev, r.Trace); err != nil {
		t.Fatal(err)
	}

	ivLines := bytes.Split(bytes.TrimSpace(iv.Bytes()), []byte("\n"))
	if len(ivLines) < 4 {
		t.Fatalf("interval series has %d records; want several (interval len too long for the workload?)", len(ivLines))
	}
	prevCycle := int64(-1)
	for i, line := range ivLines {
		if got := jsonKeys(t, line); !reflect.DeepEqual(got, wantIntervalKeys) {
			t.Fatalf("interval line keys = %v, want %v", got, wantIntervalKeys)
		}
		var rec struct {
			Bench    string `json:"bench"`
			Setup    string `json:"setup"`
			Interval int    `json:"interval"`
			Cycle    int64  `json:"cycle"`
			Retired  int64  `json:"retired"`
			Sources  []json.RawMessage
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Bench != "mst" || rec.Setup != "stream+cdp+thr" {
			t.Fatalf("labels = %q/%q", rec.Bench, rec.Setup)
		}
		if rec.Interval != i {
			t.Fatalf("interval index %d at line %d; series must be contiguous from 0", rec.Interval, i)
		}
		if rec.Cycle < prevCycle {
			t.Fatalf("cycle %d < previous %d; boundary timestamps must be monotone", rec.Cycle, prevCycle)
		}
		prevCycle = rec.Cycle
		var srcs []map[string]json.RawMessage
		if err := json.Unmarshal(line, &struct {
			Sources *[]map[string]json.RawMessage `json:"sources"`
		}{&srcs}); err != nil {
			t.Fatal(err)
		}
		if len(srcs) != 2 { // stream + cdp, in attach order
			t.Fatalf("sources per record = %d, want 2", len(srcs))
		}
		for _, s := range srcs {
			keys := make([]string, 0, len(s))
			for k := range s {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, wantSourceKeys) {
				t.Fatalf("source keys = %v, want %v", keys, wantSourceKeys)
			}
		}
	}

	evLines := bytes.Split(bytes.TrimSpace(ev.Bytes()), []byte("\n"))
	if len(evLines) == 0 || len(ev.Bytes()) == 0 {
		t.Fatal("throttled run produced no throttle events")
	}
	// Two throttled prefetchers → two events per decision round.
	if len(evLines) != 2*len(ivLines) {
		t.Fatalf("events = %d, want 2 per interval (%d)", len(evLines), 2*len(ivLines))
	}
	for _, line := range evLines {
		if got := jsonKeys(t, line); !reflect.DeepEqual(got, wantEventKeys) {
			t.Fatalf("event line keys = %v, want %v", got, wantEventKeys)
		}
		var e struct {
			Case     int    `json:"case"`
			Decision string `json:"decision"`
			Src      string `json:"src"`
			Old, New int
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		if e.Case < 1 || e.Case > 5 {
			t.Fatalf("heuristic case = %d, want 1-5", e.Case)
		}
		wantDec := map[int]string{1: "up", 2: "down", 3: "up", 4: "down", 5: "nothing"}[e.Case]
		if e.Decision != wantDec {
			t.Fatalf("case %d with decision %q, want %q", e.Case, e.Decision, wantDec)
		}
		if e.Src != "stream" && e.Src != "cdp" {
			t.Fatalf("event src = %q", e.Src)
		}
	}
}

// TestTraceDeterministic runs the same fixed-seed configuration twice and
// requires byte-identical JSONL output — traces are reproducible artifacts,
// diffable across code changes.
func TestTraceDeterministic(t *testing.T) {
	encode := func() (string, string) {
		r := runTraced(t)
		var iv, ev bytes.Buffer
		if err := EncodeIntervals(&iv, r.Trace); err != nil {
			t.Fatal(err)
		}
		if err := EncodeEvents(&ev, r.Trace); err != nil {
			t.Fatal(err)
		}
		return iv.String(), ev.String()
	}
	iv1, ev1 := encode()
	iv2, ev2 := encode()
	if iv1 != iv2 {
		t.Fatal("interval series differ between identical fixed-seed runs")
	}
	if ev1 != ev2 {
		t.Fatal("event logs differ between identical fixed-seed runs")
	}
}

// TestTraceNoObserverEffect verifies tracing is observation-only: a traced
// run's Result (IPC, BPKI, every counter) is bit-identical to an untraced
// run of the same configuration.
func TestTraceNoObserverEffect(t *testing.T) {
	traced := runTraced(t)
	s := traceSpec()
	s.Trace = false
	plain, err := sim.RunSingleSpec("mst", traceParams(), s)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced run carries a trace")
	}
	traced.Trace = nil
	if !reflect.DeepEqual(traced, plain) {
		t.Fatalf("tracing perturbed the run:\ntraced:  %+v\nuntraced: %+v", traced, plain)
	}
}

// TestWriteTraceAndManifest exercises the file layer: trace files land under
// the directory with the documented names, and the manifest round-trips.
func TestWriteTraceAndManifest(t *testing.T) {
	r := runTraced(t)
	dir := t.TempDir()
	if err := WriteTrace(dir, r.Trace); err != nil {
		t.Fatal(err)
	}
	base := TraceBase(r.Trace)
	if base != "mst__stream+cdp+thr" {
		t.Fatalf("TraceBase = %q", base)
	}
	for _, name := range []string{base + ".intervals.jsonl", base + ".events.jsonl"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			var m map[string]interface{}
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("%s: bad line: %v", name, err)
			}
		}
	}

	m := NewManifest("test", 0.05, 1, 4)
	if m.GoVersion == "" || m.SchemaVersion != TraceSchemaVersion {
		t.Fatalf("manifest = %+v", m)
	}
	if err := m.write(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "test" || back.Scale != 0.05 || back.Seed != 1 || back.Parallel != 4 {
		t.Fatalf("manifest round-trip = %+v", back)
	}
}

// TestContextTraceDir checks the experiment harness persists one trace pair
// per simulated (benchmark, setup) when TraceDir is set.
func TestContextTraceDir(t *testing.T) {
	dir := t.TempDir()
	c := NewContext()
	c.Params = workload.Params{Scale: 0.05, Seed: 1}
	c.TraceDir = dir
	res := c.run("mst", traceSpec())
	if res.Trace == nil {
		t.Fatal("TraceDir must force telemetry on")
	}
	if errs := c.JobErrs(); len(errs) > 0 {
		t.Fatal(errs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "mst__stream+cdp+thr.intervals.jsonl") ||
		!strings.Contains(joined, "mst__stream+cdp+thr.events.jsonl") {
		t.Fatalf("trace files missing; dir has %v", names)
	}
}
