package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
	_ "ldsprefetch/internal/workload/serverload" // registers kvstore, btree, graphserve
)

// defaultSeed is the seed the pinned digests were taken at.
const defaultSeed = 1

// trainSeedOffset derives the profiling (Train) input's seed from the
// workload seed, so that seed 1 profiles on the repository's own Train input
// (seed 1009) and every input of a run still follows from --seed alone.
const trainSeedOffset = 1008

// workloadDef is one named workload.
type workloadDef struct {
	// scale is the default input scale. Every benchmark of the sim
	// workloads keeps a working set above the modelled 1 MB L2 at it.
	scale float64
	// newBench returns fresh per-process state.
	newBench func() bench
}

var workloads = map[string]workloadDef{
	"lds_ecdp": {scale: 0.25, newBench: func() bench {
		return &simLoop{
			benches: []string{"mst", "health", "mcf", "omnetpp", "xalancbmk", "bisort"},
			profile: true,
			spec: func(h *core.HintTable) sim.Spec {
				return sim.NewSpec("stream+ecdp+thr", "stream", "cdp", "throttle").WithHints(h)
			},
		}
	}},
	"server_ooo": {scale: 0.25, newBench: func() bench {
		return &simLoop{
			benches: []string{"libquantum", "lbm", "kvstore", "btree", "graphserve"},
			spec: func(*core.HintTable) sim.Spec {
				return sim.NewSpec("stream", "stream").WithCore("ooo", nil)
			},
		}
	}},
	"mix4_parallel": {scale: 0.25, newBench: func() bench {
		return &mixRun{benches: []string{"mcf", "xalancbmk", "omnetpp", "health"}}
	}},
	"fig1_sweep": {scale: 0.15, newBench: func() bench {
		return &sweep{benches: workload.PointerIntensiveNames()}
	}},
}

// bench is the per-process state of one workload.
type bench interface {
	// setup builds the workload's inputs once. With shared set it builds
	// through workload.BuildShared, leaving the builds cached for the
	// passes; otherwise it repeats the same work (build plus memory-image
	// clone) without touching the cache.
	setup(r *run, shared bool) error
	// pass runs the workload's timed section once.
	pass(r *run) passResult
	// streams returns the benchmarks whose address streams the layer
	// drivers replay, and the cores they share a DRAM controller with.
	streams() (benches []string, cores int)
}

// passResult is one repetition of a workload's timed section.
type passResult struct {
	// seconds is the pass's host wall time; for fig1_sweep the cold sweep.
	seconds float64
	// warm is fig1_sweep's warm sweep over the cold sweep's store.
	warm float64
	// accesses is Σ Mem.Accesses over the pass's simulations.
	accesses int64
	// tally aggregates the simulated statistics of the pass.
	tally tally
	// jobs holds fig1_sweep's scheduler counters, cold and warm combined.
	jobs jobs.Snapshot
	// results are the pass's single-core results, for the job-store driver.
	results []sim.Result
}

// buildTrace builds one benchmark input, as a span named workload.build.
func buildTrace(r *run, bench string, p workload.Params, shared bool) (*trace.Trace, error) {
	defer r.rec.begin("workload.build", bench)()
	if shared {
		return workload.BuildShared(bench, p)
	}
	g, err := workload.Get(bench)
	if err != nil {
		return nil, err
	}
	return g.Build(p).Clone(), nil
}

// simLoop is a closed loop on one goroutine: each pass runs one single-core
// simulation per benchmark, in order.
type simLoop struct {
	benches []string
	// profile derives per-benchmark ECDP hints from a Train-input profiling
	// pass during set-up.
	profile bool
	spec    func(*core.HintTable) sim.Spec
	hints   map[string]*core.HintTable
}

func (s *simLoop) setup(r *run, shared bool) error {
	for _, b := range s.benches {
		if _, err := buildTrace(r, b, r.in, shared); err != nil {
			return err
		}
	}
	if !s.profile {
		return nil
	}
	s.hints = make(map[string]*core.HintTable, len(s.benches))
	for _, b := range s.benches {
		tr, err := buildTrace(r, b, r.train, shared)
		if err != nil {
			return err
		}
		end := r.rec.begin("profiling.collect", b)
		prof := profiling.Collect(tr, memsys.DefaultConfig(), cpu.DefaultConfig())
		end()
		s.hints[b] = prof.Hints(0)
	}
	return nil
}

func (s *simLoop) pass(r *run) passResult {
	var pr passResult
	start := time.Now()
	for _, b := range s.benches {
		sp := s.spec(s.hints[b])
		res, err := check(r, b, func() (sim.Result, error) {
			defer r.rec.begin("sim.run", b)()
			return sim.RunSingleSpec(b, r.in, sp)
		})
		if err != nil {
			continue
		}
		pr.accesses += res.Mem.Accesses
		pr.tally.add(res, res.BusTransfers)
		pr.results = append(pr.results, res)
	}
	pr.seconds = time.Since(start).Seconds()
	return pr
}

func (s *simLoop) streams() ([]string, int) { return s.benches, 1 }

// mixRun is one shared 4-core simulation per pass under the parallel
// epoch-barrier engine.
type mixRun struct {
	benches []string
}

func (m *mixRun) setup(r *run, shared bool) error {
	for _, b := range m.benches {
		if _, err := buildTrace(r, b, r.in, shared); err != nil {
			return err
		}
	}
	return nil
}

// mixSpec is the mix's configuration under the given engine.
func mixSpec(engine string) sim.Spec {
	sp := sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")
	sp.Engine = engine
	return sp
}

// runMix runs the mix once under engine and returns its result.
func (m *mixRun) runMix(r *run, engine string) (sim.MultiResult, error) {
	defer r.rec.begin("sim.run", strings.Join(m.benches, "+"))()
	return sim.RunSharedSpec(m.benches, r.in, mixSpec(engine))
}

func (m *mixRun) pass(r *run) passResult {
	var pr passResult
	start := time.Now()
	res, err := check(r, "mix", func() (sim.MultiResult, error) {
		return m.runMix(r, sim.EngineParallel)
	})
	pr.seconds = time.Since(start).Seconds()
	if err != nil {
		return pr
	}
	for i, c := range res.PerCore {
		pr.accesses += c.Mem.Accesses
		// Bus traffic is shared: count the mix's total once.
		bus := int64(0)
		if i == 0 {
			bus = res.BusTransfers
		}
		pr.tally.add(c, bus)
		pr.results = append(pr.results, c)
	}
	return pr
}

func (m *mixRun) streams() ([]string, int) { return m.benches, len(m.benches) }

// sweep regenerates Figure 1 through a jobs.Scheduler with one worker per
// CPU: a cold sweep into a fresh on-disk result store, then a warm sweep
// served from that store.
type sweep struct {
	benches []string
	n       int // sweeps run so far, for store directory names
	// lastReport is the last rendered report, kept to re-pin it.
	lastReport string
}

func (s *sweep) setup(r *run, shared bool) error {
	for _, b := range s.benches {
		for _, p := range []workload.Params{r.in, r.train} {
			if _, err := buildTrace(r, b, p, shared); err != nil {
				return err
			}
		}
	}
	return nil
}

// runFig1 runs the fig1 experiment once against the store in dir and
// returns the rendered report and the context it ran in.
func (s *sweep) runFig1(r *run, dir, label string) (string, *exp.Context, error) {
	ctx := exp.NewContext()
	ctx.Params = r.in
	ctx.TrainParams = r.train
	ctx.Parallel = runtime.NumCPU()
	ctx.CacheDir = dir
	end := r.rec.begin("exp.run", label)
	reports, err := exp.Run(ctx, "fig1")
	end()
	if err != nil {
		return "", ctx, err
	}
	if errs := ctx.JobErrs(); len(errs) > 0 {
		return "", ctx, fmt.Errorf("%d failed jobs, first: %w", len(errs), errs[0])
	}
	var b strings.Builder
	for _, rep := range reports {
		b.WriteString(rep.String())
	}
	return b.String(), ctx, nil
}

func (s *sweep) pass(r *run) passResult {
	var pr passResult
	s.n++
	dir := filepath.Join(r.work, fmt.Sprintf("store-%d", s.n))
	defer os.RemoveAll(dir)

	cold, secs := s.checkedSweep(r, dir, "cold")
	pr.seconds = secs
	if cold != nil {
		for _, b := range s.benches {
			g := cold.Grid(b) // cached by the cold sweep: no simulation
			for _, res := range []sim.Result{g.NoPF, g.Base, g.CDP, g.CDPT, g.ECDP, g.ECDPT, g.Ideal} {
				pr.accesses += res.Mem.Accesses
				pr.tally.add(res, res.BusTransfers)
				pr.results = append(pr.results, res)
			}
		}
	}
	warm, secs := s.checkedSweep(r, dir, "warm")
	pr.warm = secs
	for _, ctx := range []*exp.Context{cold, warm} {
		if ctx == nil {
			continue
		}
		m := ctx.Jobs().Metrics().Snapshot()
		pr.jobs.CacheHits += m.CacheHits
		pr.jobs.Computed += m.Computed
		pr.jobs.Failed += m.Failed
	}
	return pr
}

// checkedSweep runs fig1 once as a checked operation and returns its wall
// seconds, and its context when the sweep succeeded.
func (s *sweep) checkedSweep(r *run, dir, label string) (*exp.Context, float64) {
	var ctx *exp.Context
	start := time.Now()
	report, err := check(r, "report", func() (report string, err error) {
		report, ctx, err = s.runFig1(r, dir, label)
		return report, err
	})
	secs := time.Since(start).Seconds()
	if err != nil {
		return nil, secs
	}
	s.lastReport = report
	return ctx, secs
}

// directCalls runs one stream-baseline simulation (as sim.run spans) and
// one profiling pass over the Train input per benchmark, the two kinds of
// call a cold sweep makes, and returns the profiling passes' total seconds.
func (s *sweep) directCalls(r *run) (float64, error) {
	var collect float64
	for _, b := range s.benches {
		end := r.rec.begin("sim.run", b)
		_, err := sim.RunSingleSpec(b, r.in, sim.NewSpec("stream", "stream"))
		end()
		if err != nil {
			return 0, err
		}
		tr, err := workload.BuildShared(b, r.train)
		if err != nil {
			return 0, err
		}
		end = r.rec.begin("profiling.collect", b)
		start := time.Now()
		profiling.Collect(tr, memsys.DefaultConfig(), cpu.DefaultConfig())
		collect += time.Since(start).Seconds()
		end()
	}
	return collect, nil
}

func (s *sweep) streams() ([]string, int) { return s.benches, 1 }
