// Throttling demonstrates the coordinated prefetcher throttling mechanism
// (paper Section 4) in isolation: it compares fixed aggressiveness levels
// with dynamic coordinated throttling and with the FDP baseline on a
// benchmark where the stream prefetcher and CDP genuinely contend.
//
//	go run ./examples/throttling
package main

import (
	"fmt"

	"ldsprefetch"
	"ldsprefetch/internal/prefetch"
)

func main() {
	const bench = "mcf"
	in := ldsprefetch.RefInput()
	in.Scale = 0.5
	train := ldsprefetch.TrainInput()
	train.Scale *= in.Scale
	hints := ldsprefetch.ProfileHints(bench, train)

	// Every row is stream + ECDP; only the aggressiveness management differs.
	ecdp := func(name string, policy ...string) ldsprefetch.Spec {
		return ldsprefetch.NewSpec(name, append([]string{"stream", "cdp"}, policy...)...).WithHints(hints)
	}
	fixedLow := ecdp("fixed very-conservative")
	lv := prefetch.VeryConservative
	fixedLow.InitialLevel = &lv
	configs := []ldsprefetch.Spec{
		fixedLow,
		ecdp("fixed aggressive"),
		ecdp("FDP (individual)", "fdp"),
		ecdp("coordinated throttling", "throttle"),
	}

	base, _ := ldsprefetch.Run(bench, in, ldsprefetch.Baseline())
	fmt.Printf("benchmark: %s (stream baseline IPC %.4f, BPKI %.1f)\n\n", bench, base.IPC, base.BPKI)
	fmt.Printf("%-26s %8s %8s %9s %9s\n", "hybrid management", "IPC", "BPKI", "str-acc", "cdp-acc")
	for _, s := range configs {
		r, err := ldsprefetch.Run(bench, in, s)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-26s %8.4f %8.1f %9.3f %9.3f\n", s.Name, r.IPC, r.BPKI,
			r.Accuracy[prefetch.SrcStream], r.Accuracy[prefetch.SrcCDP])
	}
	fmt.Println("\nCoordinated throttling decides each prefetcher's aggressiveness from")
	fmt.Println("its own accuracy/coverage AND its rival's coverage (paper Table 3);")
	fmt.Println("FDP throttles each in isolation and cannot see their interaction.")
}
