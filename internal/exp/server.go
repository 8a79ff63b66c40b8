package exp

import (
	"ldsprefetch/internal/workload/serverload"
)

// ServerFamilies runs the beyond-the-paper server-class workload chapter
// (EXPERIMENTS.md): the paper's full configuration grid applied to the
// serverload families — Zipfian request streams over million-object
// key-value, B+-tree, and graph-serving state. The question is whether the
// paper's profile-guided throttled hybrid, designed around SPEC/Olden-style
// single-program traversals, still earns its bandwidth on multi-user
// server heaps where the hot set is popularity-skewed rather than
// traversal-ordered.
//
// Importing this package (every exp consumer does) also registers the
// families in the workload catalog.
func ServerFamilies(c *Context) Report {
	benches := serverload.Families()
	g := c.Grids(benches, NoPF, Base, CDP, CDPT, ECDP, ECDPT, Ideal)
	r := Report{
		ID:    "serverfam",
		Title: "Server-class workload families (beyond the paper)",
		Notes: []string{
			"beyond the paper: server families are not part of any reproduced figure",
			"profiling uses the train input of each family (same generators, smaller Zipfian stream)"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"stream-speedup", f3, nil, func(i int) float64 { return g[i].Base.IPC / g[i].NoPF.IPC }},
		{"cdp-rel", f3, nil, func(i int) float64 { return g[i].CDP.IPC / g[i].Base.IPC }},
		{"cdp+thr-rel", f3, nil, func(i int) float64 { return g[i].CDPT.IPC / g[i].Base.IPC }},
		{"ecdp-rel", f3, nil, func(i int) float64 { return g[i].ECDP.IPC / g[i].Base.IPC }},
		{"ecdp+thr-rel", f3, f3, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"ideal-rel", f3, nil, func(i int) float64 { return g[i].Ideal.IPC / g[i].Base.IPC }},
		{"BPKI-rel", f2, f2, func(i int) float64 { return safeDiv(g[i].ECDPT.BPKI, g[i].Base.BPKI) }},
	}, gmeanRow)
	return r
}
