package ldsprefetch

import (
	"testing"

	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/workload"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (one Benchmark per artifact; see DESIGN.md for the index).
// They run at a reduced input scale so `go test -bench=.` completes in
// minutes; run `go run ./cmd/experiments -exp all` for full-scale numbers.
//
// Each iteration builds a fresh context — the measured quantity is the cost
// of reproducing the artifact from scratch (profiling pass and all
// simulations; workload builds are shared via workload.BuildShared).
//
// The scale is reduced from the reference input's 1.0 so the full artifact
// set completes in minutes, while staying large enough that working sets
// exceed the 1 MB L2 and the measured code paths (MSHR waits, prefetch drops,
// feedback throttling) are all exercised.
const benchScale = 0.15

func benchCtx() *exp.Context {
	c := exp.NewContext()
	c.Params = workload.Params{Scale: benchScale, Seed: 1}
	c.TrainParams = workload.Params{Scale: benchScale * workload.Train().Scale, Seed: 1009}
	return c
}

func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		reports, err := exp.Run(benchCtx(), id)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 || len(reports[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig1(b *testing.B)       { runExp(b, "fig1") }
func BenchmarkFig2Table1(b *testing.B) { runExp(b, "fig2") }
func BenchmarkFig4(b *testing.B)       { runExp(b, "fig4") }
func BenchmarkFig7Table6(b *testing.B) { runExp(b, "fig7") }
func BenchmarkFig8(b *testing.B)       { runExp(b, "fig8") }
func BenchmarkFig9(b *testing.B)       { runExp(b, "fig9") }
func BenchmarkFig10(b *testing.B)      { runExp(b, "fig10") }
func BenchmarkTable7(b *testing.B)     { runExp(b, "table7") }
func BenchmarkFig11(b *testing.B)      { runExp(b, "fig11") }
func BenchmarkFig12(b *testing.B)      { runExp(b, "fig12") }
func BenchmarkFig13(b *testing.B)      { runExp(b, "fig13") }
func BenchmarkFig14(b *testing.B)      { runExp(b, "fig14") }
func BenchmarkFig15(b *testing.B)      { runExp(b, "fig15") }
func BenchmarkSec23(b *testing.B)      { runExp(b, "sec23") }
func BenchmarkSec616(b *testing.B)     { runExp(b, "sec616") }
func BenchmarkSec67(b *testing.B)      { runExp(b, "sec67") }
func BenchmarkSec72(b *testing.B)      { runExp(b, "sec72") }
func BenchmarkSec74(b *testing.B)      { runExp(b, "sec74") }
func BenchmarkAblations(b *testing.B)  { runExp(b, "ablate") }

// Micro-benchmarks of the simulator itself: cost per simulated benchmark
// run under the main configurations.

func benchRun(b *testing.B, bench string, sp Spec) {
	b.Helper()
	in := Input{Scale: benchScale, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Run(bench, in, sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimBaseline(b *testing.B) { benchRun(b, "mst", Baseline()) }
func BenchmarkSimCDP(b *testing.B)      { benchRun(b, "mst", OriginalCDP()) }
func BenchmarkSimProposal(b *testing.B) {
	train := Input{Scale: benchScale * TrainInput().Scale, Seed: 1009}
	hints := ProfileHints("mst", train)
	benchRun(b, "mst", Proposal(hints))
}
func BenchmarkProfilePass(b *testing.B) {
	in := Input{Scale: benchScale, Seed: 1009}
	for i := 0; i < b.N; i++ {
		if ProfileHints("mst", in).Len() == 0 {
			b.Fatal("no hints")
		}
	}
}
