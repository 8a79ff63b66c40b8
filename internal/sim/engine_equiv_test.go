package sim

import (
	"encoding/json"
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/workload"
	_ "ldsprefetch/internal/workload/serverload" // register server families
)

// mrBytes serializes a MultiResult for byte-exact comparison: every field,
// including each per-core Result, participates.
func mrBytes(t *testing.T, r MultiResult) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func runEngine(t *testing.T, benches []string, sp Spec, eng string) []byte {
	t.Helper()
	sp.Engine = eng
	r, err := RunSharedSpec(benches, testParams(), sp)
	if err != nil {
		t.Fatalf("engine %q: %v", eng, err)
	}
	return mrBytes(t, r)
}

// TestEngineParallelMatchesSerial pins the tentpole guarantee: for paper
// mixes, server mixes, and throttled configurations alike, the parallel
// engine's MultiResult is byte-identical to the serial engine's.
func TestEngineParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name    string
		benches []string
		sp      Spec
	}{
		{"2core-stream", []string{"mst", "health"}, NewSpec("stream", "stream")},
		{"2core-cdp-throttle", []string{"mst", "health"}, NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")},
		{"4core-stream", []string{"mcf", "xalancbmk", "omnetpp", "health"}, NewSpec("stream", "stream")},
		{"server-mix", []string{"kvstore", "gcc"}, NewSpec("stream+cdp", "stream", "cdp")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ser := runEngine(t, c.benches, c.sp, EngineSerial)
			par := runEngine(t, c.benches, c.sp, EngineParallel)
			if string(ser) != string(par) {
				t.Fatalf("serial and parallel reports differ:\nserial:   %s\nparallel: %s", ser, par)
			}
			// "" selects serial.
			if def := runEngine(t, c.benches, c.sp, ""); string(def) != string(ser) {
				t.Fatal("default engine is not the serial engine")
			}
		})
	}
}

// TestEngineParallelRepeatable pins run-to-run determinism of the parallel
// engine itself: two parallel runs of the same mix are byte-identical (the
// goroutine schedule must not leak into results).
func TestEngineParallelRepeatable(t *testing.T) {
	sp := NewSpec("stream+cdp", "stream", "cdp")
	benches := []string{"health", "mst"}
	a := runEngine(t, benches, sp, EngineParallel)
	b := runEngine(t, benches, sp, EngineParallel)
	if string(a) != string(b) {
		t.Fatalf("parallel runs differ:\n%s\n%s", a, b)
	}
}

// TestValidateRejectsUnknownEngine pins the spec-level knob validation.
func TestValidateRejectsUnknownEngine(t *testing.T) {
	sp := NewSpec("stream", "stream")
	sp.Engine = "turbo"
	if err := sp.Validate(); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := RunSharedSpec([]string{"mst", "health"}, testParams(), sp); err == nil {
		t.Fatal("RunSharedSpec accepted unknown engine")
	}
}

// TestEngineExcludedFromCanonical pins that serial and parallel runs share a
// cache identity: both engines produce identical results, so the canonical
// encoding must not split on the knob.
func TestEngineExcludedFromCanonical(t *testing.T) {
	ser := NewSpec("stream", "stream")
	ser.Engine = EngineSerial
	par := ser
	par.Engine = EngineParallel
	a, err := ser.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("canonical encodings differ by engine:\n%s\n%s", a, b)
	}
}

// TestAssemblePlumbsCores pins the fair-share core-count plumbing: a shared
// run's memory systems must know the real machine width even when the DRAM
// request buffer is custom-sized (memsys once inferred the width from it —
// the bug fixed alongside the engine work — and now takes an unset width
// as one core).
func TestAssemblePlumbsCores(t *testing.T) {
	sp := NewSpec("stream", "stream")
	sp.DRAMCfg = &dram.Config{Banks: 8, CtrlCycles: 50, BankCycles: 110,
		BusCycles: 40, FillCycles: 250, RequestBuffer: 96, BlockShift: 6}
	ctrl, err := controllerFor(sp, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := assemble("mst", workload.Params{Scale: 0.05, Seed: 1}, sp, ctrl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.ms.Config().Cores; got != 2 {
		t.Fatalf("assembled Cores = %d, want 2 (the machine width, not 1 or RequestBuffer/32 = 3)", got)
	}
}
