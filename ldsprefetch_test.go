package ldsprefetch

import (
	"strings"
	"testing"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/workload"
)

// Integration tests asserting the paper's qualitative shapes end-to-end
// through the public API. They run at a reduced scale; the full-scale
// numbers live in EXPERIMENTS.md.

func testInput() Input  { return Input{Scale: 0.25, Seed: 1} }
func trainInput() Input { return Input{Scale: 0.18, Seed: 1009} }

func TestShapeOriginalCDPHurtsMST(t *testing.T) {
	// Paper Figure 2: adding unfiltered CDP to the stream baseline
	// degrades mst badly and inflates its bandwidth.
	base, err := Run("mst", testInput(), Baseline())
	if err != nil {
		t.Fatal(err)
	}
	cdp, _ := Run("mst", testInput(), OriginalCDP())
	if cdp.IPC >= base.IPC {
		t.Fatalf("CDP on mst: IPC %.4f >= baseline %.4f; the pathology is gone", cdp.IPC, base.IPC)
	}
	if cdp.BPKI <= base.BPKI*1.5 {
		t.Fatalf("CDP on mst: BPKI %.1f vs %.1f; bandwidth explosion missing", cdp.BPKI, base.BPKI)
	}
	if cdp.Accuracy[prefetch.SrcCDP] > 0.25 {
		t.Fatalf("CDP accuracy on mst = %.3f, expected very low", cdp.Accuracy[prefetch.SrcCDP])
	}
}

func TestShapeECDPRepairsCDP(t *testing.T) {
	// Paper Figure 7: compiler hints recover most of CDP's losses and cut
	// its useless traffic.
	hints := ProfileHints("mst", trainInput())
	cdp, _ := Run("mst", testInput(), OriginalCDP())
	ecdp, _ := Run("mst", testInput(), NewSpec("ecdp", "stream", "cdp").WithHints(hints))
	if ecdp.IPC <= cdp.IPC {
		t.Fatalf("ECDP %.4f <= CDP %.4f on mst", ecdp.IPC, cdp.IPC)
	}
	if ecdp.BPKI >= cdp.BPKI {
		t.Fatalf("ECDP BPKI %.1f >= CDP %.1f on mst", ecdp.BPKI, cdp.BPKI)
	}
	if ecdp.Accuracy[prefetch.SrcCDP] <= cdp.Accuracy[prefetch.SrcCDP]*1.5 {
		t.Fatalf("ECDP accuracy %.3f vs CDP %.3f: hints must raise accuracy sharply",
			ecdp.Accuracy[prefetch.SrcCDP], cdp.Accuracy[prefetch.SrcCDP])
	}
}

func TestShapeProposalHelpsLDSBenchmarks(t *testing.T) {
	// The proposal must beat the stream baseline on CDP-friendly LDS
	// benchmarks (paper: health, ammp, perimeter among the winners).
	for _, bench := range []string{"health", "ammp", "perimeter"} {
		hints := ProfileHints(bench, trainInput())
		base, _ := Run(bench, testInput(), Baseline())
		ours, _ := Run(bench, testInput(), Proposal(hints))
		if ours.IPC <= base.IPC {
			t.Errorf("%s: proposal %.4f <= baseline %.4f", bench, ours.IPC, base.IPC)
		}
	}
}

func TestShapeStreamingUnaffected(t *testing.T) {
	// Paper Section 6.7: the proposal leaves non-pointer benchmarks alone.
	for _, bench := range []string{"libquantum", "gemsfdtd"} {
		hints := ProfileHints(bench, trainInput())
		base, _ := Run(bench, testInput(), Baseline())
		ours, _ := Run(bench, testInput(), Proposal(hints))
		if rel := ours.IPC / base.IPC; rel < 0.98 || rel > 1.02 {
			t.Errorf("%s: proposal changes IPC by %+.1f%%, want ~0", bench, (rel-1)*100)
		}
	}
}

func TestShapeStreamPrefetcherWorks(t *testing.T) {
	// Paper Figure 1: the stream prefetcher strongly helps streaming code.
	nopf, _ := Run("libquantum", testInput(), NewSpec("none"))
	base, _ := Run("libquantum", testInput(), Baseline())
	if base.IPC < nopf.IPC*1.5 {
		t.Fatalf("stream gives only %.2fx on libquantum", base.IPC/nopf.IPC)
	}
	if base.Coverage[prefetch.SrcStream] < 0.8 {
		t.Fatalf("stream coverage %.3f on libquantum, want near-total",
			base.Coverage[prefetch.SrcStream])
	}
}

func TestShapeIdealLDSHeadroom(t *testing.T) {
	// Pointer-intensive benchmarks must have large ideal-LDS headroom
	// (the motivation of the whole paper).
	base, _ := Run("health", testInput(), Baseline())
	ideal := Baseline()
	ideal.IdealLDS = true
	idealRes, _ := Run("health", testInput(), ideal)
	if idealRes.IPC < base.IPC*1.5 {
		t.Fatalf("ideal LDS headroom on health only %.2fx", idealRes.IPC/base.IPC)
	}
}

func TestShapeMultiCoreGains(t *testing.T) {
	// Paper Section 6.6: the proposal improves weighted speedup on a
	// pointer-intensive dual-core mix.
	mix := []string{"health", "ammp"}
	hints := ProfileHints(mix[0], trainInput())
	h2 := ProfileHints(mix[1], trainInput())
	for _, pc := range h2.PCs() {
		v, _ := h2.Lookup(pc)
		hints.Set(pc, v)
	}
	base, err := RunMulti(mix, testInput(), Baseline())
	if err != nil {
		t.Fatal(err)
	}
	ours, _ := RunMulti(mix, testInput(), Proposal(hints))
	if ours.WeightedSpeedup <= base.WeightedSpeedup {
		t.Fatalf("proposal WS %.3f <= baseline %.3f", ours.WeightedSpeedup, base.WeightedSpeedup)
	}
}

func TestPublicAPI(t *testing.T) {
	if len(Benchmarks()) != 19 {
		t.Fatalf("benchmarks = %d", len(Benchmarks()))
	}
	if len(PointerIntensiveBenchmarks()) != 15 {
		t.Fatalf("pointer-intensive = %d", len(PointerIntensiveBenchmarks()))
	}
	if len(ServerBenchmarks()) != 3 {
		t.Fatalf("server families = %d", len(ServerBenchmarks()))
	}
	if _, err := Run("nosuch", testInput(), Baseline()); err == nil {
		t.Fatal("expected error")
	}
	if h := ProfileHints("nosuch", testInput()); h.Len() != 0 {
		t.Fatal("unknown benchmark must yield empty hints")
	}
}

func TestExperimentFacade(t *testing.T) {
	out, err := Experiment("table7", testInput())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !strings.Contains(out[0], "17296") {
		t.Fatalf("table7 output wrong: %v", out)
	}
	if _, err := Experiment("nosuch", testInput()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestFacadeConfigKeys pins the cache keys of the façade's named
// configurations to the hashes they had when they were built from the
// boolean flag-bag configuration form, so a result store populated through
// the façade before the move to Spec stays warm.
func TestFacadeConfigKeys(t *testing.T) {
	p := workload.Params{Scale: 0.05, Seed: 7}
	h := core.NewHintTable()
	h.Set(0x40, core.HintVec{Pos: 3, Neg: 1})
	for _, g := range []struct {
		name string
		sp   Spec
		want string
	}{
		{"Baseline", Baseline(), "c63514845729850065a10630c11c9e41c775d38471698e3bb3b148adc742a564"},
		{"OriginalCDP", OriginalCDP(), "bcec3f74abb85c9c4611dda084b0be0fb4f3affd5ecff5f8b81e748cdd4d7755"},
		{"Proposal", Proposal(h), "bb4453e0c1e3217eaed93bae379f1815b742001d99e0c12e045004116eaed086"},
		{"Proposal(nil)", Proposal(nil), "9649ab85e4826cc6079e2f063b219d11eb0b9895ab89cd9b0acc22b925446caf"},
	} {
		k, err := jobs.SingleSpecKey("mst", p, g.sp)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if k.Hash != g.want {
			t.Errorf("%s: key drifted\n got %s\nwant %s", g.name, k.Hash, g.want)
		}
	}
}
