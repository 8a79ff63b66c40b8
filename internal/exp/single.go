package exp

import (
	"fmt"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// pointerBenches is the paper's 15-benchmark pointer-intensive suite.
func pointerBenches() []string { return workload.PointerIntensiveNames() }

// Fig1 reproduces Figure 1: the stream prefetcher's speedup and miss
// coverage per benchmark (top), and the speedup available if all LDS misses
// ideally hit (bottom), both over the relevant baselines.
func Fig1(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, NoPF, Base, Ideal)
	r := Report{
		ID:    "fig1",
		Title: "Stream prefetcher speedup/coverage and ideal-LDS potential",
		Notes: []string{"paper: ideal LDS prefetching improves average performance by 53.7% (37.7% w/o health)"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"stream-speedup", f3, f3, func(i int) float64 { return g[i].Base.IPC / g[i].NoPF.IPC }},
		{"stream-coverage", f3, nil, func(i int) float64 { return g[i].Base.Coverage[prefetch.SrcStream] }},
		{"ideal-LDS-over-stream", f3, f3, func(i int) float64 { return g[i].Ideal.IPC / g[i].Base.IPC }},
	}, gmeanRow, gmeanNoHealthRow)
	return r
}

// Fig2Table1 reproduces Figure 2 and Table 1: the effect of adding original
// CDP to the stream-prefetched baseline on performance and bandwidth, plus
// CDP's prefetch accuracy.
func Fig2Table1(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, CDP)
	r := Report{
		ID:    "fig2",
		Title: "Original CDP on top of the stream baseline (Fig. 2 + Table 1)",
		Notes: []string{
			"paper: CDP degrades average performance by 14% and increases bandwidth by 83.3%",
			"paper Table 1 accuracies range 0.9%-83.3% (mcf 1.4%, xalancbmk 0.9%, perimeter 83.3%)"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"IPC-rel", f3, f3, func(i int) float64 { return g[i].CDP.IPC / g[i].Base.IPC }},
		{"BPKI-base", f1, nil, func(i int) float64 { return g[i].Base.BPKI }},
		{"BPKI-cdp", f1, nil, func(i int) float64 { return g[i].CDP.BPKI }},
		{"BPKI-rel", f2, f2, func(i int) float64 { return safeDiv(g[i].CDP.BPKI, g[i].Base.BPKI) }},
		{"CDP-accuracy", f3, nil, func(i int) float64 { return g[i].CDP.Accuracy[prefetch.SrcCDP] }},
	}, gmeanRow)
	return r
}

// Fig4 reproduces Figure 4: the fraction of pointer groups whose prefetches
// are majority-useful vs majority-useless, from the train-input profile.
func Fig4(c *Context) Report {
	benches := pointerBenches()
	grids := c.Grids(benches, Prof)
	r := Report{
		ID:     "fig4",
		Title:  "Beneficial vs harmful pointer groups (train-input profile)",
		Header: []string{"bench", "PGs", "beneficial", "harmful", "beneficial-frac"},
	}
	for _, g := range grids {
		b, h := g.Prof.BeneficialHarmful()
		frac := 0.0
		if b+h > 0 {
			frac = float64(b) / float64(b+h)
		}
		r.Rows = append(r.Rows, []string{g.Bench, fmt.Sprint(b + h),
			fmt.Sprint(b), fmt.Sprint(h), f3(frac)})
	}
	r.Notes = append(r.Notes,
		"paper: in many benchmarks (astar, omnetpp, bisort, mst) a large fraction of PGs are harmful")
	return r
}

// Fig7Table6 reproduces the headline Figure 7 and Table 6: performance and
// bandwidth of CDP, CDP+throttling, ECDP, and ECDP+throttling, all relative
// to the stream baseline.
func Fig7Table6(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, CDP, CDPT, ECDP, ECDPT)
	r := Report{
		ID:    "fig7",
		Title: "Performance and bandwidth of the proposal (Fig. 7 + Table 6)",
		Notes: []string{
			"paper: ECDP+throttling +22.5% IPC (16% w/o health), -25% bandwidth (-27.1% w/o health)",
			"paper: original CDP -14% IPC; ECDP alone +8.6%; CDP+throttling +9.4%"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"cdp", f3, f3, func(i int) float64 { return g[i].CDP.IPC / g[i].Base.IPC }},
		{"cdp+thr", f3, f3, func(i int) float64 { return g[i].CDPT.IPC / g[i].Base.IPC }},
		{"ecdp", f3, f3, func(i int) float64 { return g[i].ECDP.IPC / g[i].Base.IPC }},
		{"ecdp+thr", f3, f3, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"bw:cdp", f2, f2, func(i int) float64 { return safeDiv(g[i].CDP.BPKI, g[i].Base.BPKI) }},
		{"bw:cdp+thr", f2, f2, func(i int) float64 { return safeDiv(g[i].CDPT.BPKI, g[i].Base.BPKI) }},
		{"bw:ecdp", f2, f2, func(i int) float64 { return safeDiv(g[i].ECDP.BPKI, g[i].Base.BPKI) }},
		{"bw:ecdp+thr", f2, f2, func(i int) float64 { return safeDiv(g[i].ECDPT.BPKI, g[i].Base.BPKI) }},
		{"IPCΔ%", delta, pct, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"BPKIΔ", func(x float64) string { return fmt.Sprintf("%+.1f", x) }, nil,
			func(i int) float64 { return g[i].ECDPT.BPKI - g[i].Base.BPKI }},
	}, gmeanRow, gmeanNoHealthRow)
	return r
}

// Fig8 reproduces Figure 8: prefetcher accuracy across configurations.
func Fig8(c *Context) Report {
	return accCovReport(c, "fig8", "Prefetcher accuracy across configurations",
		func(res sim.Result, src prefetch.Source) float64 { return res.Accuracy[src] },
		"paper: ECDP+throttling improves CDP accuracy by 129% and stream accuracy by 28% over stream+CDP")
}

// Fig9 reproduces Figure 9: prefetcher coverage across configurations.
func Fig9(c *Context) Report {
	return accCovReport(c, "fig9", "Prefetcher coverage across configurations",
		func(res sim.Result, src prefetch.Source) float64 { return res.Coverage[src] },
		"paper: the proposal slightly reduces average coverage of both prefetchers — the price of accuracy")
}

func accCovReport(c *Context, id, title string,
	metric func(sim.Result, prefetch.Source) float64, note string) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, CDP, ECDPT)
	r := Report{ID: id, Title: title, Notes: []string{note}}
	r.Header, r.Rows = table("bench", benches, []column{
		{"cdp:orig", f3, f3, func(i int) float64 { return metric(g[i].CDP, prefetch.SrcCDP) }},
		{"cdp:ecdp+thr", f3, f3, func(i int) float64 { return metric(g[i].ECDPT, prefetch.SrcCDP) }},
		{"stream:base", f3, f3, func(i int) float64 { return metric(g[i].Base, prefetch.SrcStream) }},
		{"stream:cdp", f3, f3, func(i int) float64 { return metric(g[i].CDP, prefetch.SrcStream) }},
		{"stream:ecdp+thr", f3, f3, func(i int) float64 { return metric(g[i].ECDPT, prefetch.SrcStream) }},
	}, ameanRow)
	return r
}

// Fig10 reproduces Figure 10: the distribution of pointer-group usefulness
// under original CDP (top) and under ECDP (bottom), measured at run time.
func Fig10(c *Context) Report {
	benches := pointerBenches()
	grids := c.Grids(benches, CDP, ECDP)
	r := Report{
		ID:    "fig10",
		Title: "PG usefulness distribution: original CDP vs ECDP",
		Header: []string{"bench",
			"cdp:0-25", "cdp:25-50", "cdp:50-75", "cdp:75-100",
			"ecdp:0-25", "ecdp:25-50", "ecdp:50-75", "ecdp:75-100"},
	}
	var tot, e25, c25, c75, e75 int
	for _, g := range grids {
		row := []string{g.Bench}
		for _, h := range [][4]int{g.CDP.PGHist, g.ECDP.PGHist} {
			for _, v := range h {
				row = append(row, fmt.Sprint(v))
			}
		}
		r.Rows = append(r.Rows, row)
		c25 += g.CDP.PGHist[0]
		c75 += g.CDP.PGHist[3]
		e25 += g.ECDP.PGHist[0]
		e75 += g.ECDP.PGHist[3]
		tot += g.CDP.PGHist[0] + g.CDP.PGHist[1] + g.CDP.PGHist[2] + g.CDP.PGHist[3]
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured: very-useless PGs %d→%d, very-useful PGs %d→%d (all benchmarks pooled, %d PGs under CDP)",
			c25, e25, c75, e75, tot),
		"paper: very-useful PGs 27%→68.5% of all PGs; very-useless 46%→5.2%")
	return r
}

// Table7 reproduces Table 7: the hardware storage cost of the proposal.
func Table7(c *Context) Report {
	cost := core.Cost(core.PaperCostConfig())
	r := Report{
		ID:     "table7",
		Title:  "Hardware cost of ECDP with coordinated throttling",
		Header: []string{"component", "bits"},
	}
	r.Rows = append(r.Rows,
		[]string{"prefetched bits (8192 blocks x 2)", fmt.Sprint(cost.PrefetchedBits)},
		[]string{"feedback counters (11 x 16)", fmt.Sprint(cost.CounterBits)},
		[]string{"MSHR offset+hint storage (32 x 23)", fmt.Sprint(cost.MSHRHintBits)},
		[]string{"total", fmt.Sprintf("%d (%.2f KB)", cost.TotalBits(), cost.TotalKB())},
		[]string{"area overhead vs 1MB L2", fmt.Sprintf("%.3f%%", cost.AreaOverheadPercent(1<<20))},
	)
	r.Notes = append(r.Notes, "paper: 17296 bits = 2.11 KB, 0.206% of the 1 MB L2")
	return r
}

// Fig11 reproduces Figure 11: comparison to DBP, Markov and GHB prefetchers
// (GHB runs without the stream prefetcher, per the paper), plus the hybrid
// GHB+ECDP data point discussed in Section 6.3.
func Fig11(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, ECDPT, Prof)
	res := c.sweep(benches, func(i int) []sim.Spec {
		return []sim.Spec{
			sim.NewSpec("stream+dbp", "stream", "dbp"),
			sim.NewSpec("stream+markov", "stream", "markov"),
			sim.NewSpec("ghb", "ghb"),
			sim.NewSpec("ghb+ecdp", "cdp", "ghb").WithHints(g[i].Hints),
			sim.NewSpec("ghb+ecdp+thr", "cdp", "ghb", "throttle").WithHints(g[i].Hints),
		}
	})
	const dbp, markov, ghb, ghbEcdp, ghbEcdpT = 0, 1, 2, 3, 4
	r := Report{
		ID:    "fig11",
		Title: "Comparison to DBP / Markov / GHB prefetching (IPC and BPKI vs stream baseline)",
		Notes: []string{
			"paper: ours beats DBP/Markov/GHB by 19%/7.2%/8.9%; storage 2.11KB vs 3KB/1MB/12KB",
			"paper §6.3: ECDP on top of GHB +4.6%, +throttling a further +2%"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"dbp", f3, f3, ipcVsBase(g, res, dbp)},
		{"markov", f3, f3, ipcVsBase(g, res, markov)},
		{"ghb", f3, f3, ipcVsBase(g, res, ghb)},
		{"ours", f3, f3, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"bw:dbp", f3, f2, bwVsBase(g, res, dbp)},
		{"bw:markov", f3, f2, bwVsBase(g, res, markov)},
		{"bw:ghb", f3, f2, bwVsBase(g, res, ghb)},
		{"bw:ours", f3, f2, func(i int) float64 { return safeDiv(g[i].ECDPT.BPKI, g[i].Base.BPKI) }},
		{"ghb+ecdp", f3, f3, func(i int) float64 { return res[i][ghbEcdp].IPC / res[i][ghb].IPC }},
		{"ghb+ecdp+thr", f3, f3, func(i int) float64 { return res[i][ghbEcdpT].IPC / res[i][ghb].IPC }},
	}, gmeanRow)
	return r
}

// Fig12 reproduces Figure 12: comparison to Zhuang-Lee hardware prefetch
// filtering, alone and with coordinated throttling.
func Fig12(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, CDP, ECDPT)
	res := c.sweep(benches, func(int) []sim.Spec {
		return []sim.Spec{
			sim.NewSpec("cdp+hwfilter", "stream", "cdp", "hwfilter"),
			sim.NewSpec("cdp+hwfilter+thr", "stream", "cdp", "throttle", "hwfilter"),
		}
	})
	r := Report{
		ID:    "fig12",
		Title: "Hardware prefetch filtering vs ECDP (IPC and BPKI vs stream baseline)",
		Notes: []string{
			"paper: the 8KB hardware filter alone gains 4.4% (too aggressive, kills useful prefetches);",
			"paper: ECDP+throttling beats filter-alone by 17% with 25.8% bandwidth savings"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"cdp", f3, nil, func(i int) float64 { return g[i].CDP.IPC / g[i].Base.IPC }},
		{"cdp+filter", f3, f3, ipcVsBase(g, res, 0)},
		{"filter+thr", f3, f3, ipcVsBase(g, res, 1)},
		{"ecdp+thr", f3, f3, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"bw:filter", f3, f2, bwVsBase(g, res, 0)},
		{"bw:filter+thr", f3, f2, bwVsBase(g, res, 1)},
		{"bw:ecdp+thr", f3, f2, func(i int) float64 { return safeDiv(g[i].ECDPT.BPKI, g[i].Base.BPKI) }},
	}, gmeanRow)
	return r
}

// Fig13 reproduces Figure 13: coordinated throttling vs feedback-directed
// prefetching, both managing the stream + ECDP hybrid.
func Fig13(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, ECDPT, Prof)
	fdp := perBench(benches, func(i int, b string) sim.Result {
		return c.run(b, sim.NewSpec("ecdp+fdp", "stream", "cdp", "fdp").WithHints(g[i].Hints))
	})
	r := Report{
		ID:    "fig13",
		Title: "Coordinated throttling vs feedback-directed prefetching (on stream+ECDP)",
		Notes: []string{"paper: coordinated throttling outperforms FDP by 5% (FDP throttles each prefetcher in isolation)"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"fdp", f3, f3, func(i int) float64 { return fdp[i].IPC / g[i].Base.IPC }},
		{"coordinated", f3, f3, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"bw:fdp", f2, f2, func(i int) float64 { return safeDiv(fdp[i].BPKI, g[i].Base.BPKI) }},
		{"bw:coordinated", f2, f2, func(i int) float64 { return safeDiv(g[i].ECDPT.BPKI, g[i].Base.BPKI) }},
	}, gmeanRow)
	return r
}

// Sec616 reproduces Section 6.1.6: sensitivity to the profiling input set —
// hints from the train input vs hints from the reference input itself.
func Sec616(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, ECDPT)
	self := perBench(benches, func(_ int, b string) sim.Result {
		// Profile with the reference input, then measure.
		prof, err := c.Jobs().Profile(b, c.Params)
		if err != nil {
			c.noteJobErr(fmt.Errorf("self-input profiling %s: %w", b, err))
			prof = &profiling.Profile{}
		}
		return c.run(b, sim.NewSpec("ecdp+thr(self)", "stream", "cdp", "throttle").WithHints(prof.Hints(0)))
	})
	r := Report{
		ID:    "sec6.1.6",
		Title: "Profiling input sensitivity: train-input hints vs same-input hints",
		Notes: []string{"paper: same-input profiling helped >1% on only one benchmark (mst, +4%)"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"train-hints", f3, nil, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"self-hints", f3, nil, func(i int) float64 { return self[i].IPC / g[i].Base.IPC }},
		{"delta%", delta, pct, func(i int) float64 {
			d := self[i].IPC/g[i].ECDPT.IPC - 1
			return d + 1 // summarised as the gmean of d+1, not of the raw ratio
		}},
	}, gmeanRow)
	return r
}

// Sec67 reproduces Section 6.7: the proposal's effect on the remaining
// (non-pointer-intensive) benchmarks.
func Sec67(c *Context) Report {
	benches := workload.NonPointerIntensiveNames()
	g := c.Grids(benches, NoPF, Base, ECDPT)
	r := Report{
		ID:    "sec6.7",
		Title: "Non-pointer-intensive benchmarks: the proposal is harmless",
		Notes: []string{"paper: +0.3% performance, -0.1% bandwidth on the remaining benchmarks"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"stream-speedup", f3, nil, func(i int) float64 { return g[i].Base.IPC / g[i].NoPF.IPC }},
		{"ecdp+thr-rel", f3, f3, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"BPKI-rel", f2, f2, func(i int) float64 { return safeDiv(g[i].ECDPT.BPKI, g[i].Base.BPKI) }},
	}, gmeanRow)
	return r
}

// Sec23 reproduces the Section 2.3 oracle: original CDP with pollution
// ideally eliminated, on the benchmarks CDP hurts most.
func Sec23(c *Context) Report {
	benches := []string{"bisort", "mst", "mcf", "xalancbmk"}
	g := c.Grids(benches, Base, CDP)
	noPol := perBench(benches, func(_ int, b string) sim.Result {
		return c.run(b, sim.Spec{Name: "cdp-nopollution", NoPollution: true,
			Components: []sim.Component{{Kind: "stream"}, {Kind: "cdp"}}})
	})
	r := Report{
		ID:    "sec2.3",
		Title: "Original CDP with ideal pollution elimination",
		Notes: []string{"paper: with pollution ideally removed, CDP would improve bisort by 29.4% and mst by 30.4%"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"cdp", f3, nil, func(i int) float64 { return g[i].CDP.IPC / g[i].Base.IPC }},
		{"cdp-no-pollution", f3, nil, func(i int) float64 { return noPol[i].IPC / g[i].Base.IPC }},
	})
	return r
}

// Sec72 reproduces Sections 7.1-7.2: coarse-grained per-load control (GRP /
// trigger-load filtering) vs ECDP's per-pointer-group hints.
func Sec72(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, ECDP, ECDPT, Prof)
	coarse := perBench(benches, func(i int, b string) sim.Result {
		return c.run(b, sim.NewSpec("grp-coarse", "stream", "cdp").WithHints(g[i].Prof.CoarseHints(0)))
	})
	r := Report{
		ID:    "sec7.2",
		Title: "Coarse per-load control (GRP-style) vs fine-grained ECDP",
		Notes: []string{"paper: coarse-grained (all-or-nothing per load) control gains only 0.4%-1%"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"coarse", f3, f3, func(i int) float64 { return coarse[i].IPC / g[i].Base.IPC }},
		{"ecdp", f3, f3, func(i int) float64 { return g[i].ECDP.IPC / g[i].Base.IPC }},
		{"ecdp+thr", f3, nil, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
	}, gmeanRow)
	return r
}

// Sec74 reproduces Section 7.4: PAB-style best-prefetcher-only selection.
func Sec74(c *Context) Report {
	benches := pointerBenches()
	g := c.Grids(benches, Base, ECDPT, Prof)
	pab := perBench(benches, func(i int, b string) sim.Result {
		return c.run(b, sim.NewSpec("pab", "stream", "cdp", "pab").WithHints(g[i].Hints))
	})
	r := Report{
		ID:    "sec7.4",
		Title: "PAB-style accuracy-only prefetcher selection vs coordinated throttling",
		Notes: []string{"paper: enabling only the most accurate prefetcher loses 11% performance on average"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"pab", f3, f3, func(i int) float64 { return pab[i].IPC / g[i].Base.IPC }},
		{"coordinated", f3, f3, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"bw:pab", f2, nil, func(i int) float64 { return safeDiv(pab[i].BPKI, g[i].Base.BPKI) }},
		{"bw:coordinated", f2, nil, func(i int) float64 { return safeDiv(g[i].ECDPT.BPKI, g[i].Base.BPKI) }},
	}, gmeanRow)
	return r
}

// ipcVsBase and bwVsBase are the column values for variant j of a sweep:
// its IPC and its BPKI relative to each benchmark's stream baseline.
func ipcVsBase(g []*Grid, res [][]sim.Result, j int) func(int) float64 {
	return func(i int) float64 { return res[i][j].IPC / g[i].Base.IPC }
}

func bwVsBase(g []*Grid, res [][]sim.Result, j int) func(int) float64 {
	return func(i int) float64 { return safeDiv(res[i][j].BPKI, g[i].Base.BPKI) }
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return 0
	}
	return a / b
}
