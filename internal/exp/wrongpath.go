package exp

import (
	"fmt"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/sim"
)

// Wrong-path pollution study (beyond the paper): the paper's evaluation uses
// an out-of-order core whose wrong-path accesses reach the memory system, a
// second-order effect the default interval model abstracts away. This
// experiment re-runs representative pointer-intensive benchmarks on the
// speculative "ooo" core model, whose mispredicted branches inject real
// wrong-path loads (they consume MSHRs and DRAM bandwidth and pollute the
// caches before being squashed), and contrasts prefetcher accuracy and bus
// traffic against the interval model's clean-path results.

// wrongPathBenches are the benchmarks studied: the three chain-walkers whose
// data-dependent loop branches mispredict at every traversal exit (mst,
// health, astar) plus mcf, whose pricing predicate is data-dependent but
// biased. All four emit branch ops from their generators.
var wrongPathBenches = []string{"mst", "health", "astar", "mcf"}

// WrongPath reproduces the wrong-path pollution study: each benchmark runs
// the paper's stream+CDP+throttling configuration on the interval core and
// on the out-of-order core (bimodal and tage predictors), and the report
// compares branch behaviour, wrong-path memory traffic, prefetcher accuracy,
// and bandwidth per kilo-instruction.
func WrongPath(c *Context) Report {
	type variant struct {
		label string
		core  *sim.Component
	}
	ooo := func(pred string) *sim.Component {
		comp := sim.NewComponent(sim.CoreOoO, &cpu.OoOOptions{Predictor: pred})
		return &comp
	}
	variants := []variant{
		{"interval", nil},
		{"ooo/bimodal", ooo("bimodal")},
		{"ooo/tage", ooo("tage")},
	}

	rep := Report{
		ID:    "wrongpath",
		Title: "Prefetcher accuracy and bandwidth efficiency under wrong-path pollution",
		Header: []string{"bench", "core", "IPC", "misp/1k", "wp.issued",
			"wp.dram", "acc.stream", "acc.cdp", "BPKI"},
	}

	for _, bench := range wrongPathBenches {
		for _, v := range variants {
			sp := sim.NewSpec("wp-"+v.label, "stream", "cdp", "throttle")
			if v.core != nil {
				sp.Core = v.core
			}
			res := c.run(bench, sp)
			misPerK := 0.0
			if res.Retired > 0 {
				misPerK = 1000 * float64(res.Mispredicts) / float64(res.Retired)
			}
			rep.Rows = append(rep.Rows, []string{
				bench, v.label,
				f3(res.IPC),
				f2(misPerK),
				fmt.Sprint(res.Mem.WrongPathAccesses),
				fmt.Sprint(res.Mem.WrongPathToDRAM),
				f3(res.Accuracy[prefetch.SrcStream]),
				f3(res.Accuracy[prefetch.SrcCDP]),
				f2(res.BPKI),
			})
		}
	}

	rep.Notes = append(rep.Notes,
		"interval rows are the clean-path reference (branches ignored, no speculation)",
		"wp.issued/wp.dram: squashed wrong-path loads issued, and those fetched from DRAM — bandwidth the interval model never accounts",
		"accuracy deltas vs the interval row isolate pollution and bandwidth contention effects on the prefetchers")
	return rep
}
