// Quickstart: simulate one pointer-intensive benchmark under the paper's
// main configurations and print the headline comparison — the single-
// benchmark slice of Figure 7.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"ldsprefetch"
)

func main() {
	const bench = "health" // the suite's most LDS-bound benchmark
	in := ldsprefetch.RefInput()
	in.Scale = 0.5 // half-size input keeps the example quick

	// The "compiler pass": profile the train input to classify pointer
	// groups and build the per-load hint bit vectors.
	train := ldsprefetch.TrainInput()
	train.Scale *= in.Scale
	hints := ldsprefetch.ProfileHints(bench, train)

	configs := []ldsprefetch.Spec{
		ldsprefetch.NewSpec("no prefetching"),
		ldsprefetch.Baseline(),
		ldsprefetch.OriginalCDP(),
		ldsprefetch.NewSpec("stream+ecdp", "stream", "cdp").WithHints(hints),
		ldsprefetch.Proposal(hints),
	}

	fmt.Printf("benchmark: %s\n\n", bench)
	fmt.Printf("%-18s %8s %8s %10s\n", "configuration", "IPC", "BPKI", "vs stream")
	var base float64
	for _, s := range configs {
		r, err := ldsprefetch.Run(bench, in, s)
		if err != nil {
			panic(err)
		}
		if s.Name == "stream" {
			base = r.IPC
		}
		rel := ""
		if base > 0 {
			rel = fmt.Sprintf("%+.1f%%", (r.IPC/base-1)*100)
		}
		fmt.Printf("%-18s %8.4f %8.1f %10s\n", s.Name, r.IPC, r.BPKI, rel)
	}
	fmt.Println("\nThe proposal (stream+ecdp+thr) should beat both the stream baseline")
	fmt.Println("and unfiltered CDP — compiler hints remove the useless prefetches,")
	fmt.Println("and coordinated throttling manages the two prefetchers' contention.")
}
