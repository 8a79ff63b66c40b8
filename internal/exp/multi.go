package exp

import (
	"strings"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// profileTrace runs the profiling pass over a private clone of the shared
// functional build of bench at p.
func profileTrace(bench string, p workload.Params) *profiling.Profile {
	tr, err := workload.BuildShared(bench, p)
	if err != nil {
		panic(err) // callers pass registry benchmark names
	}
	return profiling.Collect(tr, memsys.DefaultConfig(), cpu.DefaultConfig())
}

// TwoCoreWorkloads are the 12 dual-core multiprogrammed combinations
// (paper Section 6.6: randomly selected mixes of pointer-intensive and
// non-pointer-intensive benchmarks, including the xalancbmk+astar case the
// paper calls out).
var TwoCoreWorkloads = [][]string{
	{"xalancbmk", "astar"},
	{"mcf", "libquantum"},
	{"omnetpp", "h264ref"},
	{"health", "gemsfdtd"},
	{"mst", "lbm"},
	{"ammp", "perlbench"},
	{"bisort", "gcc"},
	{"pfast", "omnetpp"},
	{"perimeter", "libquantum"},
	{"voronoi", "h264ref"},
	{"astar", "mcf"},
	{"gemsfdtd", "h264ref"}, // both non-intensive: expected ~no effect
}

// FourCoreWorkloads are the 4 quad-core case studies (paper Section 6.6:
// one all-intensive, two mixed, one mostly non-intensive).
var FourCoreWorkloads = [][]string{
	{"mcf", "xalancbmk", "omnetpp", "health"},
	{"astar", "ammp", "libquantum", "h264ref"},
	{"mst", "pfast", "gemsfdtd", "lbm"},
	{"perlbench", "libquantum", "gemsfdtd", "h264ref"},
}

// Hints merges the train-input hint tables of benches into one table for a
// multi-core mix; PCs are disjoint by construction (every workload uses its
// own PC range). Each benchmark is profiled once per context.
func (c *Context) Hints(benches []string) *core.HintTable {
	merged := core.NewHintTable()
	for _, b := range benches {
		_, h := c.profile(b)
		for _, pc := range h.PCs() {
			v, _ := h.Lookup(pc)
			merged.Set(pc, v)
		}
	}
	return merged
}

// mixSpecs are the configurations Figures 14/15 compare on every mix; the
// first is the stream baseline the others are normalised to.
func mixSpecs(hints *core.HintTable) []sim.Spec {
	return []sim.Spec{
		sim.NewSpec("stream", "stream"),
		sim.NewSpec("ecdp+thr", "stream", "cdp", "throttle").WithHints(hints),
		sim.NewSpec("stream+dbp", "stream", "dbp"),
		sim.NewSpec("stream+markov", "stream", "markov"),
		sim.NewSpec("ghb", "ghb"),
	}
}

func multiReport(c *Context, id, title string, mixes [][]string, paperNotes []string) Report {
	res := collect(len(mixes), func(i int) []sim.MultiResult {
		specs := mixSpecs(c.Hints(mixes[i]))
		return collect(len(specs), func(j int) sim.MultiResult { return c.runMulti(mixes[i], specs[j]) })
	})
	const base, ours, dbp, markov, ghb = 0, 1, 2, 3, 4
	ws := func(j int) func(int) float64 {
		return func(i int) float64 { return res[i][j].WeightedSpeedup / res[i][base].WeightedSpeedup }
	}
	bus := func(j int) func(int) float64 {
		return func(i int) float64 { return safeDiv(res[i][j].BusPKI, res[i][base].BusPKI) }
	}
	labels := make([]string, len(mixes))
	for i, mix := range mixes {
		labels[i] = mixLabel(mix)
	}
	r := Report{ID: id, Title: title, Notes: paperNotes}
	r.Header, r.Rows = table("workload", labels, []column{
		{"ws:ours", f3, f3, ws(ours)},
		{"ws:dbp", f3, f3, ws(dbp)},
		{"ws:markov", f3, f3, ws(markov)},
		{"ws:ghb", f3, f3, ws(ghb)},
		{"hmean:ours", f3, f3, func(i int) float64 { return res[i][ours].HmeanSpeedup / res[i][base].HmeanSpeedup }},
		{"bus:ours", f3, f2, bus(ours)},
		{"bus:dbp", f3, f2, bus(dbp)},
		{"bus:markov", f3, f2, bus(markov)},
		{"bus:ghb", f3, f2, bus(ghb)},
	}, gmeanRow)
	return r
}

// Fig14 reproduces Figure 14: dual-core weighted speedup and bus traffic for
// the proposal vs DBP/Markov/GHB, over 12 two-benchmark mixes.
func Fig14(c *Context) Report {
	return multiReport(c, "fig14",
		"Dual-core system: weighted speedup and bus traffic (vs stream baseline)",
		TwoCoreWorkloads, []string{
			"paper: ours +10.4% weighted speedup, +9.9% hmean, -14.9% bus traffic",
			"paper: xalancbmk+astar +20% / -28.3% bus; GemsFDTD+h264ref ~+1%",
			"paper: Markov +4.1% ws but +19.5% bus; GHB +6.2% ws, -5% bus; DBP ineffective",
		})
}

// Fig15 reproduces Figure 15: the 4-core case studies.
func Fig15(c *Context) Report {
	return multiReport(c, "fig15",
		"Four-core system: weighted speedup and bus traffic (vs stream baseline)",
		FourCoreWorkloads, []string{
			"paper: ours +9.5% weighted / +9.7% hmean speedup, -15.3% bus traffic",
		})
}

// mixLabel names a workload mix in reports and tests.
func mixLabel(mix []string) string { return strings.Join(mix, "+") }
