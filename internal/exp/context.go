package exp

import (
	"fmt"
	"runtime"
	"sync"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// Grid holds the shared single-core results for one benchmark: the
// configurations Figures 1, 2, 7, 8, 9 and Tables 1, 6 are all derived from.
type Grid struct {
	Bench string
	// Prof is the train-input pointer-group profile; Hints its hint table.
	Prof  *profiling.Profile
	Hints *core.HintTable

	NoPF  sim.Result // no prefetching
	Base  sim.Result // stream only (the paper's baseline)
	CDP   sim.Result // stream + original CDP
	CDPT  sim.Result // stream + original CDP + coordinated throttling
	ECDP  sim.Result // stream + ECDP
	ECDPT sim.Result // stream + ECDP + coordinated throttling (the proposal)
	Ideal sim.Result // stream + ideal LDS oracle (Figure 1 bottom)
}

// Context caches profiles and grid results across experiments so that a
// full reproduction run simulates each configuration once. Every simulation
// routes through a jobs.Scheduler: panics are contained per job, identical
// concurrent jobs are deduplicated, and — when CacheDir is set — completed
// cells are journaled to a content-addressed store so re-runs only simulate
// invalidated cells and interrupted sweeps resume where they stopped.
type Context struct {
	// Params is the measurement input (Ref by default).
	Params workload.Params
	// TrainParams is the profiling input (Train by default).
	TrainParams workload.Params
	// Parallel bounds concurrent simulations.
	Parallel int
	// TraceDir, when non-empty, enables interval telemetry on every
	// simulation and persists each run's JSONL trace files there (see
	// OBSERVABILITY.md). Write failures are recorded as job errors (JobErrs).
	TraceDir string
	// CacheDir, when non-empty, enables the content-addressed result store
	// (see ORCHESTRATION.md).
	CacheDir string
	// VerifyCache re-executes every cache hit and fails the job on a
	// mismatch (determinism check).
	VerifyCache bool
	// Engine selects the multi-core execution engine (sim.EngineSerial /
	// sim.EngineParallel; "" = serial) for every mix this context runs.
	// Engines are result-equivalent, so this is a wall-clock knob only.
	Engine string
	// Core, when non-nil, selects the core timing model (a registered
	// sim Core component, e.g. "ooo") for every simulation this context
	// runs that does not pin one itself. Nil runs the registry default
	// ("interval"), whose results are byte-identical to pre-seam reports.
	Core *sim.Component
	// Sched, when set before first use, is the scheduler all simulations
	// run on (the job service injects a per-sweep scheduler sharing a
	// global worker pool this way). When nil, a private scheduler is built
	// from Parallel/CacheDir/VerifyCache on first use.
	Sched *jobs.Scheduler

	mu      sync.Mutex
	benches map[string]*benchState
	once    sync.Once
	jobErrs []error
}

// NewContext returns a context using the paper's ref/train inputs.
func NewContext() *Context {
	return &Context{
		Params:      workload.Ref(),
		TrainParams: workload.Train(),
		Parallel:    runtime.NumCPU(),
	}
}

// Jobs returns the scheduler this context runs on, building the default one
// on first use.
func (c *Context) Jobs() *jobs.Scheduler {
	c.once.Do(func() {
		if c.Sched != nil {
			return
		}
		cfg := jobs.Config{Workers: c.Parallel, Verify: c.VerifyCache}
		if c.CacheDir != "" {
			store, err := jobs.Open(c.CacheDir)
			if err != nil {
				c.noteJobErr(fmt.Errorf("opening result cache: %w", err))
			} else {
				cfg.Store = store
			}
		}
		c.Sched = jobs.New(cfg)
	})
	return c.Sched
}

// RunOne executes one simulation as a job, persisting its telemetry when
// TraceDir is set. Failures (invalid spec, unknown benchmark, contained
// worker panic) are returned; trace-write failures are recorded (JobErrs)
// without failing the run.
func (c *Context) RunOne(bench string, sp sim.Spec) (sim.Result, error) {
	if c.TraceDir != "" {
		sp.Trace = true
	}
	if c.Core != nil && sp.Core == nil {
		core := *c.Core
		sp.Core = &core
	}
	r, err := c.Jobs().SingleSpec(bench, c.Params, sp)
	if err != nil {
		return r, err
	}
	if c.TraceDir != "" && r.Trace != nil {
		if werr := WriteTrace(c.TraceDir, r.Trace); werr != nil {
			c.noteJobErr(fmt.Errorf("writing trace %s/%s: %w", bench, sp.Name, werr))
		}
	}
	return r, nil
}

// run executes one simulation, converting failures into recorded job errors
// (surfaced in report footers and the CLI exit code) instead of panics.
func (c *Context) run(bench string, sp sim.Spec) sim.Result {
	r, err := c.RunOne(bench, sp)
	if err != nil {
		c.noteJobErr(fmt.Errorf("job %s/%s: %w", bench, sp.Name, err))
	}
	return r
}

// RunMix executes one multi-core simulation as jobs (one shared run plus
// cacheable per-benchmark alone runs), persisting per-core telemetry when
// TraceDir is set.
func (c *Context) RunMix(benches []string, sp sim.Spec) (sim.MultiResult, error) {
	if c.TraceDir != "" {
		sp.Trace = true
	}
	if c.Engine != "" {
		sp.Engine = c.Engine
	}
	if c.Core != nil && sp.Core == nil {
		core := *c.Core
		sp.Core = &core
	}
	r, err := c.Jobs().MultiSpec(benches, c.Params, sp)
	if err != nil {
		return r, err
	}
	if c.TraceDir != "" {
		for i, pc := range r.PerCore {
			if pc.Trace == nil {
				continue
			}
			if werr := WriteTraceAs(c.TraceDir, coreTraceBase(benches, i, pc.Trace), pc.Trace); werr != nil {
				c.noteJobErr(fmt.Errorf("writing trace %s/%s: %w", mixLabel(benches), sp.Name, werr))
			}
		}
	}
	return r, nil
}

// runMulti is RunMix with failures recorded as job errors.
func (c *Context) runMulti(benches []string, sp sim.Spec) sim.MultiResult {
	r, err := c.RunMix(benches, sp)
	if err != nil {
		c.noteJobErr(fmt.Errorf("job %s/%s: %w", mixLabel(benches), sp.Name, err))
	}
	return r
}

// noteJobErr records one failed job.
func (c *Context) noteJobErr(err error) {
	c.mu.Lock()
	c.jobErrs = append(c.jobErrs, err)
	c.mu.Unlock()
}

// JobErrs returns every job failure recorded so far, in completion order.
func (c *Context) JobErrs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]error, len(c.jobErrs))
	copy(out, c.jobErrs)
	return out
}

// benchState memoizes one benchmark's train-input profile and its grid.
// Each is computed once per context, however many goroutines ask for it.
type benchState struct {
	profOnce, gridOnce sync.Once
	prof               *profiling.Profile
	hints              *core.HintTable
	grid               *Grid
}

// state returns bench's memo, creating it on first use.
func (c *Context) state(bench string) *benchState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.benches == nil {
		c.benches = make(map[string]*benchState)
	}
	s, ok := c.benches[bench]
	if !ok {
		s = &benchState{}
		c.benches[bench] = s
	}
	return s
}

// profile returns bench's train-input PG profile and its hint table,
// collecting them on first use. Failures degrade to an empty profile (no
// hints) with the error recorded.
func (c *Context) profile(bench string) (*profiling.Profile, *core.HintTable) {
	s := c.state(bench)
	s.profOnce.Do(func() {
		prof, err := c.Jobs().Profile(bench, c.TrainParams)
		if err != nil {
			c.noteJobErr(fmt.Errorf("profiling %s: %w", bench, err))
			prof = &profiling.Profile{}
		}
		s.prof, s.hints = prof, prof.Hints(0)
	})
	return s.prof, s.hints
}

// Grid returns the cached shared results for bench, computing them on first
// use. The seven configurations run concurrently.
func (c *Context) Grid(bench string) *Grid {
	s := c.state(bench)
	s.gridOnce.Do(func() {
		g := &Grid{Bench: bench}
		g.Prof, g.Hints = c.profile(bench)
		runs := []struct {
			dst *sim.Result
			sp  sim.Spec
		}{
			{&g.NoPF, sim.NewSpec("nopf")},
			{&g.Base, sim.NewSpec("stream", "stream")},
			{&g.CDP, sim.Spec{Name: "stream+cdp", ProfilePGs: true,
				Components: []sim.Component{{Kind: "stream"}, {Kind: "cdp"}}}},
			{&g.CDPT, sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")},
			{&g.ECDP, sim.Spec{Name: "stream+ecdp", Hints: g.Hints, ProfilePGs: true,
				Components: []sim.Component{{Kind: "stream"}, {Kind: "cdp"}}}},
			{&g.ECDPT, sim.NewSpec("stream+ecdp+thr", "stream", "cdp", "throttle").WithHints(g.Hints)},
			{&g.Ideal, sim.Spec{Name: "ideal-lds", IdealLDS: true,
				Components: []sim.Component{{Kind: "stream"}}}},
		}
		fanOut(len(runs), func(i int) { *runs[i].dst = c.run(bench, runs[i].sp) })
		s.grid = g
	})
	return s.grid
}

// Grids returns grids for all listed benchmarks, computed concurrently.
func (c *Context) Grids(benches []string) []*Grid {
	return perBench(benches, func(_ int, b string) *Grid { return c.Grid(b) })
}
