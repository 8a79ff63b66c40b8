package exp

import (
	"fmt"
	"strconv"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/sim"
)

// RawSweep runs every benchmark under every named configuration and every
// spec — the job service's raw sweep — and reports one row per cell in
// bench-major order. Named configurations that need hints (the ECDP
// variants) take them from the benchmark's train-input profile; unnamed
// specs are labelled spec<i>. A failed cell is reported FAILED and recorded
// as a job error, with the sweep's failures appended as footer notes.
// Configuration names are assumed valid (the server checks them at submit).
func RawSweep(c *Context, benches, configs []string, specs []sim.Spec) Report {
	before := len(c.JobErrs())
	needHints := false
	for _, cfg := range configs {
		needHints = needHints || sim.NamedNeedsHints(cfg)
	}
	type cell struct {
		label  string
		res    sim.Result
		failed bool
	}
	cells := perBench(benches, func(_ int, b string) []cell {
		var hints *core.HintTable
		if needHints {
			_, hints = c.profile(b)
		}
		var labels []string
		var variants []sim.Spec
		for _, cfg := range configs {
			sp, _ := sim.Named(cfg, hints)
			labels, variants = append(labels, cfg), append(variants, sp)
		}
		for i, sp := range specs {
			if sp.Name == "" {
				sp.Name = "spec" + strconv.Itoa(i)
			}
			labels, variants = append(labels, sp.Name), append(variants, sp)
		}
		return collect(len(variants), func(j int) cell {
			r, err := c.RunOne(b, variants[j])
			if err != nil {
				c.noteJobErr(fmt.Errorf("job %s/%s: %w", b, labels[j], err))
			}
			return cell{labels[j], r, err != nil}
		})
	})

	r := Report{
		ID:     "raw",
		Title:  "Raw sweep: benchmarks x configurations",
		Header: []string{"bench", "config", "IPC", "BPKI", "L2-demand-misses", "status"},
	}
	for i, b := range benches {
		for _, cl := range cells[i] {
			status := "ok"
			if cl.failed {
				status = "FAILED"
			}
			r.Rows = append(r.Rows, []string{
				b, cl.label,
				fmt.Sprintf("%.4f", cl.res.IPC),
				fmt.Sprintf("%.2f", cl.res.BPKI),
				strconv.FormatInt(cl.res.DemandMisses, 10),
				status,
			})
		}
	}
	for _, err := range c.JobErrs()[before:] {
		r.Notes = append(r.Notes, "FAILED JOB: "+err.Error())
	}
	return r
}
