package ldsprefetch_test

import (
	"fmt"
	"log"
	"strings"

	"ldsprefetch"
	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/workload"
)

// The examples measure a tenth of the reference input so that go test checks
// all of them in about a second; EXPERIMENTS.md has the paper-scale numbers.

// ExampleRun simulates mst, the paper's running example, under its main
// configurations: the single-benchmark slice of Figure 7. mst's hash lookups
// walk bucket chains whose nodes also hold data pointers. Original CDP
// prefetches every pointer in every fetched block, so its accuracy is low,
// its bus traffic (BPKI) doubles and its IPC falls below the stream
// baseline's. The compiler's hints (see ExampleProfileHints) keep ECDP to the
// beneficial pointer groups, which lifts its accuracy and puts it ahead of
// both. The small input closes no 8192-eviction feedback interval, so
// coordinated throttling never acts and the proposal prints the same numbers
// as stream+ecdp.
func ExampleRun() {
	const bench = "mst"
	in := ldsprefetch.Input{Scale: 0.1, Seed: 1}
	train := ldsprefetch.TrainInput()
	train.Scale *= in.Scale
	hints, err := ldsprefetch.ProfileHints(bench, train)
	if err != nil {
		log.Fatal(err)
	}
	specs := []ldsprefetch.Spec{
		ldsprefetch.NewSpec("no prefetching"),
		ldsprefetch.Baseline(),
		ldsprefetch.OriginalCDP(),
		ldsprefetch.NewSpec("stream+ecdp", "stream", "cdp").WithHints(hints),
		ldsprefetch.Proposal(hints),
	}
	ipc := make([]float64, len(specs))
	fmt.Printf("%-16s %7s %5s %8s\n", "configuration", "IPC", "BPKI", "CDP acc")
	for i, sp := range specs {
		r, err := ldsprefetch.Run(bench, in, sp)
		if err != nil {
			log.Fatal(err)
		}
		ipc[i] = r.IPC
		acc := "-"
		if r.Issued[prefetch.SrcCDP] > 0 {
			acc = fmt.Sprintf("%.3f", r.Accuracy[prefetch.SrcCDP])
		}
		fmt.Printf("%-16s %7.4f %5.1f %8s\n", sp.Name, r.IPC, r.BPKI, acc)
	}
	fmt.Printf("proposal IPC: %+.1f%% vs stream, %+.1f%% vs original CDP\n",
		(ipc[4]/ipc[1]-1)*100, (ipc[4]/ipc[2]-1)*100)
	// Output:
	// configuration        IPC  BPKI  CDP acc
	// no prefetching    0.7197   3.2        -
	// stream            0.7360   3.2        -
	// stream+cdp        0.6610   6.4    0.088
	// stream+ecdp       0.8750   4.4    0.503
	// stream+ecdp+thr   0.8750   4.4    0.503
	// proposal IPC: +18.9% vs stream, +32.4% vs original CDP
}

// ExampleProfileHints runs the paper's compiler profiling pass (Section 3)
// on the mst profiling input of ExampleRun and prints what the compiler
// learns: the most active pointer groups with their verdicts (beneficial when
// more than profiling.BeneficialThreshold of their prefetches were used), and
// the hint table ProfileHints returns. Each load's table entry marks its
// beneficial groups at positive offsets in pos and at negative offsets in
// neg (paper Figure 6). ExampleRun measures the effect of these hints.
func ExampleProfileHints() {
	train := ldsprefetch.Input{Scale: 0.05, Seed: 1009}
	g, err := workload.Get("mst")
	if err != nil {
		log.Fatal(err)
	}
	prof := profiling.Collect(g.Build(train), memsys.DefaultConfig(), cpu.DefaultConfig())
	b, h := prof.BeneficialHarmful()
	fmt.Printf("%d pointer groups (%d beneficial, %d harmful)\n", b+h, b, h)
	fmt.Printf("%-24s %7s %7s %10s  %s\n", "pointer group", "useful", "useless", "usefulness", "verdict")
	for _, pg := range prof.TopPGs(6) {
		s := prof.PGs[pg]
		verdict := "harmful"
		if s.Usefulness() > profiling.BeneficialThreshold {
			verdict = "beneficial"
		}
		fmt.Printf("%-24s %7d %7d %10.3f  %s\n", pg, s.Useful, s.Useless, s.Usefulness(), verdict)
	}

	hints, err := ldsprefetch.ProfileHints("mst", train)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hint table (%d loads):\n", hints.Len())
	for _, pc := range hints.PCs() {
		v, _ := hints.Lookup(pc)
		fmt.Printf("  pc=%#x pos=%#08x neg=%#08x\n", pc, v.Pos, v.Neg)
	}
	// Output:
	// 36 pointer groups (24 beneficial, 12 harmful)
	// pointer group             useful useless usefulness  verdict
	// PG(pc=0x50104,off=-12)       131    1278      0.093  harmful
	// PG(pc=0x50104,off=-44)        87    1321      0.062  harmful
	// PG(pc=0x50104,off=-28)        80    1312      0.057  harmful
	// PG(pc=0x50104,off=-60)        91    1300      0.065  harmful
	// PG(pc=0x50108,off=-8)         84    1215      0.065  harmful
	// PG(pc=0x5010c,off=+0)         93       0      1.000  beneficial
	// hint table (4 loads):
	//   pc=0x50100 pos=0x0000000b neg=0x00003ffe
	//   pc=0x50104 pos=0x00000008 neg=0x00001111
	//   pc=0x50108 pos=0x00000011 neg=0x00000000
	//   pc=0x5010c pos=0x00000001 neg=0x00000000
}

// Example_throttling compares four ways to manage the aggressiveness of the
// two prefetchers of the stream + ECDP hybrid on mcf (paper Section 4): both
// fixed at very conservative, both fixed at aggressive, each throttled on its
// own by FDP, and coordinated throttling, which sets each prefetcher's level
// from its own accuracy and coverage and its rival's coverage (Table 3). The
// small input closes only three of the paper's 8192-eviction feedback
// intervals, so every row uses 2048-eviction intervals. The last two lines name the best row on each metric: on this input FDP has the
// highest IPC and the fixed very-conservative pair the lowest BPKI, so
// coordinated throttling wins neither.
func Example_throttling() {
	const bench = "mcf"
	in := ldsprefetch.Input{Scale: 0.1, Seed: 1}
	train := ldsprefetch.TrainInput()
	train.Scale *= in.Scale
	hints, err := ldsprefetch.ProfileHints(bench, train)
	if err != nil {
		log.Fatal(err)
	}
	hybrid := func(name string, policy ...string) ldsprefetch.Spec {
		sp := ldsprefetch.NewSpec(name, append([]string{"stream", "cdp"}, policy...)...).WithHints(hints)
		sp.IntervalLen = 2048
		return sp
	}
	fixedLow := hybrid("fixed very-conservative")
	lv := prefetch.VeryConservative
	fixedLow.InitialLevel = &lv
	specs := []ldsprefetch.Spec{
		fixedLow,
		hybrid("fixed aggressive"),
		hybrid("FDP (individual)", "fdp"),
		hybrid("coordinated throttling", "throttle"),
	}
	fmt.Printf("%-24s %7s %5s %8s %8s\n", "hybrid management", "IPC", "BPKI", "str acc", "cdp acc")
	var bestIPC, bestBPKI ldsprefetch.Result
	for _, sp := range specs {
		r, err := ldsprefetch.Run(bench, in, sp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %7.4f %5.1f %8.3f %8.3f\n", r.Setup, r.IPC, r.BPKI,
			r.Accuracy[prefetch.SrcStream], r.Accuracy[prefetch.SrcCDP])
		if r.IPC > bestIPC.IPC {
			bestIPC = r
		}
		if bestBPKI.Setup == "" || r.BPKI < bestBPKI.BPKI {
			bestBPKI = r
		}
	}
	fmt.Println("highest IPC:", bestIPC.Setup)
	fmt.Println("lowest BPKI:", bestBPKI.Setup)
	// Output:
	// hybrid management            IPC  BPKI  str acc  cdp acc
	// fixed very-conservative   0.4869  21.0    0.728    0.470
	// fixed aggressive          0.4943  26.9    0.475    0.378
	// FDP (individual)          0.4993  23.0    0.564    0.436
	// coordinated throttling    0.4979  26.3    0.499    0.388
	// highest IPC: FDP (individual)
	// lowest BPKI: fixed very-conservative
}

// Example_baselines runs every prefetching approach in the repository on mst
// next to the hardware storage each technique adds: the single-benchmark
// slice of the paper's Figures 11 to 13 and its storage comparison (Sections
// 6.2 and 6.3). The last line names every technique
// with the highest IPC: on this input the proposal ties ECDP under FDP and
// beats every hardware-only scheme.
func Example_baselines() {
	const bench = "mst"
	in := ldsprefetch.Input{Scale: 0.1, Seed: 1}
	train := ldsprefetch.TrainInput()
	train.Scale *= in.Scale
	hints, err := ldsprefetch.ProfileHints(bench, train)
	if err != nil {
		log.Fatal(err)
	}
	rows := []struct {
		name, storage string
		spec          ldsprefetch.Spec
	}{
		{"stream baseline", "-", ldsprefetch.Baseline()},
		{"+ original CDP", "0 (stateless)", ldsprefetch.OriginalCDP()},
		{"+ DBP", "~3 KB", ldsprefetch.NewSpec("stream+dbp", "stream", "dbp")},
		{"+ Markov", "1 MB", ldsprefetch.NewSpec("stream+markov", "stream", "markov")},
		{"GHB G/DC (alone)", "12 KB", ldsprefetch.NewSpec("ghb", "ghb")},
		{"+ CDP + HW filter", "8 KB", ldsprefetch.NewSpec("stream+cdp+hwf", "stream", "cdp", "hwfilter")},
		{"+ ECDP + FDP", "-", ldsprefetch.NewSpec("stream+ecdp+fdp", "stream", "cdp", "fdp").WithHints(hints)},
		{"proposal (ECDP+thr)", fmt.Sprintf("%.2f KB", core.PaperCost().TotalKB()), ldsprefetch.Proposal(hints)},
	}
	fmt.Printf("%-20s %13s %7s %5s %9s\n", "technique", "storage", "IPC", "BPKI", "vs stream")
	var base, best float64
	var winners []string
	for _, row := range rows {
		r, err := ldsprefetch.Run(bench, in, row.spec)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = r.IPC
		}
		fmt.Printf("%-20s %13s %7.4f %5.1f %+8.1f%%\n", row.name, row.storage, r.IPC, r.BPKI, (r.IPC/base-1)*100)
		switch {
		case r.IPC > best:
			best, winners = r.IPC, []string{row.name}
		case r.IPC == best:
			winners = append(winners, row.name)
		}
	}
	fmt.Println("highest IPC:", strings.Join(winners, ", "))
	// Output:
	// technique                  storage     IPC  BPKI vs stream
	// stream baseline                  -  0.7360   3.2     +0.0%
	// + original CDP       0 (stateless)  0.6610   6.4    -10.2%
	// + DBP                        ~3 KB  0.7636   3.2     +3.7%
	// + Markov                      1 MB  0.7360   3.2     +0.0%
	// GHB G/DC (alone)             12 KB  0.7207   3.2     -2.1%
	// + CDP + HW filter             8 KB  0.6718   6.3     -8.7%
	// + ECDP + FDP                     -  0.8750   4.4    +18.9%
	// proposal (ECDP+thr)        2.11 KB  0.8750   4.4    +18.9%
	// highest IPC: + ECDP + FDP, proposal (ECDP+thr)
}

// ExampleRunMulti runs xalancbmk next to astar on a dual-core system that
// shares one DRAM controller (paper Section 6.6), under the stream baseline
// and under the proposal, and reports weighted and harmonic-mean speedup over
// each benchmark running alone, and bus transfers per kilo-instruction. The
// two hint tables merge into one because each proxy has its own PC range.
// The last line gives the proposal's change in weighted speedup and in bus
// traffic.
func ExampleRunMulti() {
	mix := []string{"xalancbmk", "astar"}
	in := ldsprefetch.Input{Scale: 0.1, Seed: 1}
	train := ldsprefetch.TrainInput()
	train.Scale *= in.Scale
	hints := core.NewHintTable()
	for _, b := range mix {
		h, err := ldsprefetch.ProfileHints(b, train)
		if err != nil {
			log.Fatal(err)
		}
		for _, pc := range h.PCs() {
			v, _ := h.Lookup(pc)
			hints.Set(pc, v)
		}
	}
	base, err := ldsprefetch.RunMulti(mix, in, ldsprefetch.Baseline())
	if err != nil {
		log.Fatal(err)
	}
	ours, err := ldsprefetch.RunMulti(mix, in, ldsprefetch.Proposal(hints))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %16s %13s %6s\n", "configuration", "weighted speedup", "hmean speedup", "bus/KI")
	for _, r := range []ldsprefetch.MultiResult{base, ours} {
		fmt.Printf("%-20s %16.3f %13.3f %6.1f\n", r.Setup, r.WeightedSpeedup, r.HmeanSpeedup, r.BusPKI)
	}
	for i, b := range mix {
		fmt.Printf("%s under the proposal: IPC %.4f shared, %.4f alone\n", b, ours.PerCore[i].IPC, ours.AloneIPC[i])
	}
	fmt.Printf("proposal: %+.1f%% weighted speedup, %+.1f%% bus traffic\n",
		(ours.WeightedSpeedup/base.WeightedSpeedup-1)*100, (ours.BusPKI/base.BusPKI-1)*100)
	// Output:
	// configuration        weighted speedup hmean speedup bus/KI
	// stream                          1.566         0.746    7.8
	// stream+ecdp+thr                 1.584         0.761   11.4
	// xalancbmk under the proposal: IPC 0.3941 shared, 0.4162 alone
	// astar under the proposal: IPC 0.5281 shared, 0.8295 alone
	// proposal: +1.1% weighted speedup, +46.5% bus traffic
}
