// Baselines compares every prefetching approach in the repository on one
// pointer-intensive benchmark — the single-benchmark slice of the paper's
// Figure 11/12/13 comparisons, including each technique's hardware storage
// cost (paper Section 6.2/6.3).
//
//	go run ./examples/baselines
package main

import (
	"fmt"

	"ldsprefetch"
	"ldsprefetch/internal/core"
)

func main() {
	const bench = "health"
	in := ldsprefetch.RefInput()
	in.Scale = 0.4
	train := ldsprefetch.TrainInput()
	train.Scale *= in.Scale
	hints := ldsprefetch.ProfileHints(bench, train)

	cost := core.Cost(core.PaperCostConfig())
	rows := []struct {
		name    string
		storage string
		spec    ldsprefetch.Spec
	}{
		{"stream baseline", "-", ldsprefetch.Baseline()},
		{"+ original CDP", "0 (stateless)", ldsprefetch.OriginalCDP()},
		{"+ DBP", "~3 KB", ldsprefetch.NewSpec("stream+dbp", "stream", "dbp")},
		{"+ Markov", "1 MB", ldsprefetch.NewSpec("stream+markov", "stream", "markov")},
		{"GHB G/DC (alone)", "12 KB", ldsprefetch.NewSpec("ghb", "ghb")},
		{"+ CDP + HW filter", "8 KB", ldsprefetch.NewSpec("stream+cdp+hwf", "stream", "cdp", "hwfilter")},
		{"+ ECDP + FDP", "-", ldsprefetch.NewSpec("stream+ecdp+fdp", "stream", "cdp", "fdp").WithHints(hints)},
		{"proposal (ECDP+thr)", fmt.Sprintf("%.2f KB", cost.TotalKB()), ldsprefetch.Proposal(hints)},
	}

	base, err := ldsprefetch.Run(bench, in, rows[0].spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("benchmark: %s\n\n", bench)
	fmt.Printf("%-22s %10s %8s %8s %10s\n", "technique", "storage", "IPC", "BPKI", "vs stream")
	for _, row := range rows {
		r, err := ldsprefetch.Run(bench, in, row.spec)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s %10s %8.4f %8.1f %+9.1f%%\n",
			row.name, row.storage, r.IPC, r.BPKI, (r.IPC/base.IPC-1)*100)
	}
	fmt.Println("\nThe proposal's 2.11 KB buys compiler knowledge no table can store:")
	fmt.Println("which pointers the program will actually follow.")
}
