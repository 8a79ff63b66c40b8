package exp

import (
	"fmt"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/sim/registry"
)

// ablationBenches is a representative subset used for design-choice sweeps
// (one CDP-hostile, one CDP-friendly, one stream-friendly, one huge-LDS,
// one mixed benchmark).
var ablationBenches = []string{"mst", "perimeter", "gcc", "health", "perlbench"}

// AblateDepth sweeps CDP's fixed maximum recursion depth (no throttling):
// the aggressiveness axis of paper Table 2.
func AblateDepth(c *Context) Report {
	levels := []prefetch.AggLevel{prefetch.VeryConservative, prefetch.Conservative,
		prefetch.Moderate, prefetch.Aggressive}
	g := c.Grids(ablationBenches, Base, Prof)
	res := c.sweep(ablationBenches, func(i int) []sim.Spec {
		var specs []sim.Spec
		for _, lv := range levels {
			sp := sim.NewSpec(fmt.Sprintf("ecdp-depth%d", prefetch.CDPDepth(lv)),
				"stream", "cdp").WithHints(g[i].Hints)
			sp.InitialLevel = &lv
			specs = append(specs, sp)
		}
		return specs
	})
	r := Report{
		ID:    "ablate-depth",
		Title: "ECDP recursion depth sweep (fixed aggressiveness, no throttling)",
	}
	r.Header, r.Rows = table("bench", ablationBenches, []column{
		{"depth1", f3, nil, ipcVsBase(g, res, 0)},
		{"depth2", f3, nil, ipcVsBase(g, res, 1)},
		{"depth3", f3, nil, ipcVsBase(g, res, 2)},
		{"depth4", f3, nil, ipcVsBase(g, res, 3)},
		{"bw:d1", f2, nil, bwVsBase(g, res, 0)},
		{"bw:d4", f2, nil, bwVsBase(g, res, 3)},
	})
	return r
}

// AblateThresholds sweeps the coordinated-throttling thresholds around the
// paper's Table 4 values, demonstrating the tunability claim of Section 4.2.
func AblateThresholds(c *Context) Report {
	variants := []struct {
		name string
		th   core.Thresholds
	}{
		{"paper(0.2/0.4/0.7)", core.DefaultThresholds()},
		{"tight(0.35/0.55/0.8)", core.Thresholds{TCoverage: 0.35, ALow: 0.55, AHigh: 0.8}},
		{"loose(0.1/0.25/0.6)", core.Thresholds{TCoverage: 0.1, ALow: 0.25, AHigh: 0.6}},
	}
	g := c.Grids(ablationBenches, Base, Prof)
	res := c.sweep(ablationBenches, func(i int) []sim.Spec {
		var specs []sim.Spec
		for _, v := range variants {
			specs = append(specs, sim.NewSpec("ecdp+thr", "stream", "cdp").
				With(sim.NewComponent("throttle", registry.ThrottleOptions{Thresholds: &v.th})).
				WithHints(g[i].Hints))
		}
		return specs
	})
	r := Report{
		ID:    "ablate-thresholds",
		Title: "Coordinated-throttling threshold sensitivity",
		Notes: []string{"paper §4.2: thresholds were determined empirically but not fine-tuned"},
	}
	var cols []column
	for j, v := range variants {
		cols = append(cols, column{v.name, f3, nil, ipcVsBase(g, res, j)})
	}
	r.Header, r.Rows = table("bench", ablationBenches, cols)
	return r
}

// AblateInterval sweeps the feedback interval length (paper: 8192 L2
// evictions).
func AblateInterval(c *Context) Report {
	g := c.Grids(ablationBenches, Base, Prof)
	res := c.sweep(ablationBenches, func(i int) []sim.Spec {
		var specs []sim.Spec
		for _, iv := range []int{2048, 8192, 32768} {
			sp := sim.NewSpec("ecdp+thr", "stream", "cdp", "throttle").WithHints(g[i].Hints)
			sp.IntervalLen = iv
			specs = append(specs, sp)
		}
		return specs
	})
	r := Report{
		ID:    "ablate-interval",
		Title: "Feedback interval length sweep (L2 evictions per interval)",
	}
	r.Header, r.Rows = table("bench", ablationBenches, []column{
		{"2048", f3, nil, ipcVsBase(g, res, 0)},
		{"8192(paper)", f3, nil, ipcVsBase(g, res, 1)},
		{"32768", f3, nil, ipcVsBase(g, res, 2)},
	})
	return r
}

// AblateHintThreshold sweeps the beneficial-PG classification boundary
// (paper: 50% usefulness).
func AblateHintThreshold(c *Context) Report {
	g := c.Grids(ablationBenches, Base, Prof)
	res := c.sweep(ablationBenches, func(i int) []sim.Spec {
		var specs []sim.Spec
		for _, cut := range []float64{0.25, 0.5, 0.75} {
			specs = append(specs,
				sim.NewSpec("ecdp+thr", "stream", "cdp", "throttle").WithHints(g[i].Prof.Hints(cut)))
		}
		return specs
	})
	r := Report{
		ID:    "ablate-hint-threshold",
		Title: "Beneficial-PG usefulness threshold sweep",
		Notes: []string{"paper footnote 4: PGs below 50% usefulness usually cause performance loss"},
	}
	r.Header, r.Rows = table("bench", ablationBenches, []column{
		{"0.25", f3, nil, ipcVsBase(g, res, 0)},
		{"0.50(paper)", f3, nil, ipcVsBase(g, res, 1)},
		{"0.75", f3, nil, ipcVsBase(g, res, 2)},
	})
	return r
}

// AblateTriple exercises the paper's stated future work (Section 4.2): the
// throttling heuristics are prefetcher-symmetric and prefetcher-agnostic, so
// more than two prefetchers compose — each decides from its own metrics and
// the maximum rival coverage. We run stream + ECDP + GHB as a
// three-prefetcher hybrid, with and without coordinated throttling.
func AblateTriple(c *Context) Report {
	g := c.Grids(ablationBenches, Base, Prof)
	res := c.sweep(ablationBenches, func(i int) []sim.Spec {
		return []sim.Spec{
			sim.NewSpec("stream+ecdp+ghb", "stream", "cdp", "ghb").WithHints(g[i].Hints),
			sim.NewSpec("stream+ecdp+ghb+thr", "stream", "cdp", "ghb", "throttle").WithHints(g[i].Hints),
		}
	})
	r := Report{
		ID:    "ablate-triple",
		Title: "Three-prefetcher hybrid (stream+ECDP+GHB): coordinated throttling generalizes",
		Notes: []string{"paper §4.2: \"the use of throttling for more than two prefetchers is part of ongoing work\""},
	}
	r.Header, r.Rows = table("bench", ablationBenches, []column{
		{"triple", f3, f3, ipcVsBase(g, res, 0)},
		{"triple+thr", f3, f3, ipcVsBase(g, res, 1)},
		{"bw:triple", f2, nil, bwVsBase(g, res, 0)},
		{"bw:triple+thr", f2, nil, bwVsBase(g, res, 1)},
	}, gmeanRow)
	return r
}

// Ablations runs all design-choice sweeps.
func Ablations(c *Context) []Report {
	return []Report{AblateDepth(c), AblateThresholds(c), AblateInterval(c),
		AblateHintThreshold(c), AblateTriple(c), AblateBlockSize(c)}
}
