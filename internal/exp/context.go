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
// Each field is one Cell, filled only once some caller of Context.Grid or
// Context.Grids has asked for that cell.
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

// Cell names one memoized unit of a benchmark's Grid: one of the seven
// shared single-core configurations, or Prof, the train-input profile and
// its hint table. A generator asks Grid or Grids for exactly the cells it
// reads (helpers included); each cell is computed at most once per Context,
// and no cell runs unless some caller names it.
type Cell int

const (
	NoPF  Cell = iota // no prefetching
	Base              // stream only (the paper's baseline)
	CDP               // stream + original CDP
	CDPT              // stream + original CDP + coordinated throttling
	ECDP              // stream + ECDP
	ECDPT             // stream + ECDP + coordinated throttling (the proposal)
	Ideal             // stream + ideal LDS oracle (Figure 1 bottom)
	Prof              // the train-input profile (Grid.Prof and Grid.Hints)

	numConfigs = int(Prof) // the simulated cells precede Prof
)

// gridSpecs are the seven shared configurations, indexed by Cell. ECDP and
// ECDPT run with the benchmark's train-input hints, so asking for either
// also computes Prof.
var gridSpecs = [numConfigs]sim.Spec{
	NoPF: sim.NewSpec("nopf"),
	Base: sim.NewSpec("stream", "stream"),
	CDP: {Name: "stream+cdp", ProfilePGs: true,
		Components: []sim.Component{{Kind: "stream"}, {Kind: "cdp"}}},
	CDPT: sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle"),
	ECDP: {Name: "stream+ecdp", ProfilePGs: true,
		Components: []sim.Component{{Kind: "stream"}, {Kind: "cdp"}}},
	ECDPT: sim.NewSpec("stream+ecdp+thr", "stream", "cdp", "throttle"),
	Ideal: {Name: "ideal-lds", IdealLDS: true,
		Components: []sim.Component{{Kind: "stream"}}},
}

// result returns the Grid field that holds simulated cell c.
func (g *Grid) result(c Cell) *sim.Result {
	return [numConfigs]*sim.Result{&g.NoPF, &g.Base, &g.CDP, &g.CDPT, &g.ECDP, &g.ECDPT, &g.Ideal}[c]
}

// benchState memoizes one benchmark's grid, one cell at a time: profOnce
// guards Prof, cellOnce[c] each simulated cell. Each is computed once per
// context, however many goroutines ask for it.
type benchState struct {
	profOnce sync.Once
	cellOnce [numConfigs]sync.Once
	grid     Grid
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
		s = &benchState{grid: Grid{Bench: bench}}
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
		s.grid.Prof, s.grid.Hints = prof, prof.Hints(0)
	})
	return s.grid.Prof, s.grid.Hints
}

// computeCell computes bench's cell on first use.
func (c *Context) computeCell(bench string, cell Cell) {
	if cell == Prof {
		c.profile(bench)
		return
	}
	s := c.state(bench)
	s.cellOnce[cell].Do(func() {
		sp := gridSpecs[cell]
		if cell == ECDP || cell == ECDPT {
			_, sp.Hints = c.profile(bench)
		}
		*s.grid.result(cell) = c.run(bench, sp)
	})
}

// Grid returns bench's memoized grid once every requested cell is computed.
// Cells no call has asked for keep their zero values; with no cells, Grid
// computes nothing and returns the memo as it stands.
func (c *Context) Grid(bench string, cells ...Cell) *Grid {
	return c.Grids([]string{bench}, cells...)[0]
}

// Grids is Grid for every listed benchmark, with all benchmark × cell pairs
// in flight at once.
func (c *Context) Grids(benches []string, cells ...Cell) []*Grid {
	fanOut(len(benches)*len(cells), func(k int) {
		c.computeCell(benches[k/len(cells)], cells[k%len(cells)])
	})
	out := make([]*Grid, len(benches))
	for i, b := range benches {
		out[i] = &c.state(b).grid
	}
	return out
}
