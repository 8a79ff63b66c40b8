package exp

import "ldsprefetch/internal/sim"

// CustomSpec runs a user-provided spec over the pointer-intensive suite next
// to the stream baseline and reports relative performance and bandwidth —
// the -spec entry point of the experiments CLI. The spec runs exactly as
// given (hints, options, block size); only Name defaults when empty.
func CustomSpec(c *Context, sp sim.Spec) Report {
	if sp.Name == "" {
		sp.Name = "spec"
	}
	benches := pointerBenches()
	res := c.sweep(benches, func(int) []sim.Spec {
		return []sim.Spec{sim.NewSpec("stream", "stream"), sp}
	})
	r := Report{
		ID:    "spec",
		Title: "Custom spec " + sp.Name + " vs the stream baseline",
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"IPC", f3, nil, func(i int) float64 { return res[i][1].IPC }},
		{"IPC-rel", f3, f3, func(i int) float64 { return safeDiv(res[i][1].IPC, res[i][0].IPC) }},
		{"BPKI", f1, nil, func(i int) float64 { return res[i][1].BPKI }},
		{"BPKI-rel", f2, f2, func(i int) float64 { return safeDiv(res[i][1].BPKI, res[i][0].BPKI) }},
	}, gmeanRow)
	return r
}
