package sim

import (
	"strings"
	"testing"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/workload"
)

// testParams keeps unit-test runs fast; data still exceeds the small caches
// used by shrunkMem.
func testParams() workload.Params { return workload.Params{Scale: 0.12, Seed: 5} }

// baseline is the paper's baseline system: the aggressive stream prefetcher
// alone.
func baseline() Spec { return NewSpec("stream", "stream") }

func TestRunSingleUnknownBenchmark(t *testing.T) {
	if _, err := RunSingleSpec("nosuch", testParams(), baseline()); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestBaselineMetricsSane(t *testing.T) {
	r, err := RunSingleSpec("mst", testParams(), baseline())
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Fatalf("IPC = %v out of range", r.IPC)
	}
	if r.Cycles <= 0 || r.Retired <= 0 {
		t.Fatalf("cycles=%d retired=%d", r.Cycles, r.Retired)
	}
	if r.BPKI < 0 {
		t.Fatalf("BPKI = %v", r.BPKI)
	}
	if r.Benchmark != "mst" || r.Setup != "stream" {
		t.Fatalf("labels = %q/%q", r.Benchmark, r.Setup)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, _ := RunSingleSpec("perlbench", testParams(), baseline())
	b, _ := RunSingleSpec("perlbench", testParams(), baseline())
	if a.Cycles != b.Cycles || a.BusTransfers != b.BusTransfers {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/transfers",
			a.Cycles, a.BusTransfers, b.Cycles, b.BusTransfers)
	}
}

func TestCDPIssuesOnPointerBenchmark(t *testing.T) {
	r, err := RunSingleSpec("health", testParams(), NewSpec("", "stream", "cdp"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Issued[prefetch.SrcCDP] == 0 {
		t.Fatal("CDP issued nothing on health")
	}
	if r.Accuracy[prefetch.SrcCDP] <= 0 || r.Accuracy[prefetch.SrcCDP] > 1 {
		t.Fatalf("CDP accuracy = %v", r.Accuracy[prefetch.SrcCDP])
	}
}

func TestCDPQuietOnStreamingBenchmark(t *testing.T) {
	r, err := RunSingleSpec("libquantum", testParams(), NewSpec("", "stream", "cdp"))
	if err != nil {
		t.Fatal(err)
	}
	// Streaming blocks contain no pointer-looking values.
	if r.Issued[prefetch.SrcCDP] != 0 {
		t.Fatalf("CDP issued %d prefetches on libquantum", r.Issued[prefetch.SrcCDP])
	}
}

func TestIdealLDSNeverSlower(t *testing.T) {
	base, _ := RunSingleSpec("health", testParams(), baseline())
	ideal, _ := RunSingleSpec("health", testParams(), Spec{Components: baseline().Components, IdealLDS: true})
	if ideal.IPC < base.IPC*0.99 {
		t.Fatalf("ideal LDS %.4f slower than baseline %.4f", ideal.IPC, base.IPC)
	}
}

func TestECDPUsesHints(t *testing.T) {
	g, _ := workload.Get("mst")
	prof := profiling.Collect(g.Build(testParams()), memsys.DefaultConfig(), cpu.DefaultConfig())
	hints := prof.Hints(0)
	if hints.Len() == 0 {
		t.Fatal("profile produced no hints")
	}
	p := workload.Params{Scale: 0.12, Seed: 6}
	cdp, _ := RunSingleSpec("mst", p, NewSpec("", "stream", "cdp"))
	ecdp, _ := RunSingleSpec("mst", p, NewSpec("", "stream", "cdp").WithHints(hints))
	if ecdp.Issued[prefetch.SrcCDP] >= cdp.Issued[prefetch.SrcCDP] {
		t.Fatalf("ECDP issued %d >= CDP %d: hints not filtering",
			ecdp.Issued[prefetch.SrcCDP], cdp.Issued[prefetch.SrcCDP])
	}
}

func TestProfilePGsCollects(t *testing.T) {
	r, _ := RunSingleSpec("mst", testParams(), Spec{Components: NewSpec("", "stream", "cdp").Components, ProfilePGs: true})
	total := r.PGBeneficial + r.PGHarmful
	if total == 0 {
		t.Fatal("no pointer groups observed")
	}
	sum := 0
	for _, v := range r.PGHist {
		sum += v
	}
	if sum != total {
		t.Fatalf("histogram sum %d != classified PGs %d", sum, total)
	}
}

func TestBaselinePrefetchersAttach(t *testing.T) {
	nopol := NewSpec("nopol", "stream", "cdp")
	nopol.NoPollution = true
	for _, s := range []Spec{
		NewSpec("markov", "stream", "markov"),
		NewSpec("ghb", "ghb"),
		NewSpec("dbp", "stream", "dbp"),
		NewSpec("fdp", "stream", "cdp", "fdp"),
		NewSpec("pab", "stream", "cdp", "pab"),
		NewSpec("filter", "stream", "cdp", "hwfilter"),
		nopol,
	} {
		if _, err := RunSingleSpec("mst", testParams(), s); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func TestInitialLevelRespected(t *testing.T) {
	lv := prefetch.VeryConservative
	cons, _ := RunSingleSpec("health", testParams(), Spec{Components: NewSpec("", "stream", "cdp").Components, InitialLevel: &lv})
	aggr, _ := RunSingleSpec("health", testParams(), NewSpec("", "stream", "cdp"))
	// Depth 1 must issue fewer CDP prefetches than depth 4.
	if cons.Issued[prefetch.SrcCDP] >= aggr.Issued[prefetch.SrcCDP] {
		t.Fatalf("very-conservative issued %d >= aggressive %d",
			cons.Issued[prefetch.SrcCDP], aggr.Issued[prefetch.SrcCDP])
	}
}

func TestRunMulti(t *testing.T) {
	r, err := RunMultiSpec([]string{"mst", "libquantum"}, testParams(), baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerCore) != 2 || len(r.AloneIPC) != 2 {
		t.Fatalf("per-core results = %d", len(r.PerCore))
	}
	if r.WeightedSpeedup <= 0 || r.WeightedSpeedup > 2.01 {
		t.Fatalf("weighted speedup = %v out of [0,2]", r.WeightedSpeedup)
	}
	if r.HmeanSpeedup <= 0 || r.HmeanSpeedup > 1.01 {
		t.Fatalf("hmean speedup = %v (shared can't beat alone)", r.HmeanSpeedup)
	}
	if r.BusTransfers <= 0 || r.BusPKI <= 0 {
		t.Fatalf("bus stats = %d/%v", r.BusTransfers, r.BusPKI)
	}
	// Sharing must not make a core faster than running alone.
	for i, pc := range r.PerCore {
		if pc.IPC > r.AloneIPC[i]*1.01 {
			t.Fatalf("core %d shared IPC %v > alone %v", i, pc.IPC, r.AloneIPC[i])
		}
	}
}

func TestRunMultiUnknownBenchmark(t *testing.T) {
	if _, err := RunMultiSpec([]string{"mst", "nosuch"}, testParams(), baseline()); err == nil {
		t.Fatal("expected error")
	}
}

// TestRunMultiEmptyMix: an empty mix is an error, as in jobs.MultiSpec, not
// a zero result.
func TestRunMultiEmptyMix(t *testing.T) {
	if _, err := RunMultiSpec(nil, testParams(), baseline()); err == nil || !strings.Contains(err.Error(), "empty benchmark mix") {
		t.Fatalf("RunMultiSpec(nil) err = %v, want an empty-mix error", err)
	}
}

func TestContentionSlowsSharedCores(t *testing.T) {
	// Two memory-hungry benchmarks sharing a controller must each run
	// slower than alone.
	r, err := RunMultiSpec([]string{"health", "health"}, testParams(), baseline())
	if err != nil {
		t.Fatal(err)
	}
	if r.WeightedSpeedup >= 2.0 {
		t.Fatalf("no contention visible: WS = %v", r.WeightedSpeedup)
	}
}
