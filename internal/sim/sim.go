// Package sim assembles complete simulated systems — workload, core, memory
// hierarchy, prefetchers, throttling controllers — and runs them to produce
// the metrics the paper reports: IPC, BPKI (bus accesses per thousand
// retired instructions), per-prefetcher accuracy and coverage, and
// multi-core weighted/harmonic speedups.
//
// # Lifecycle
//
// A run is described by a Spec — a declarative list of component kinds from
// the component table (components.go) plus spec-level inputs — and workload
// Params (input scale and seed). RunSingleSpec builds the whole stack —
// workload trace, caches, DRAM controller, prefetchers, controllers —
// executes it to completion, and returns a Result with the end-of-run
// metrics. RunMultiSpec does the same for one benchmark per core over a
// shared DRAM controller and additionally runs each benchmark alone to
// normalize the weighted and harmonic speedups in MultiResult.
//
// Named configurations ("stream", "ecdp+throttle", ...) resolve to Specs
// through Named; NewSpec builds any other composition of component kinds.
//
// Setting Spec.Trace additionally attaches an interval-level telemetry
// recorder; the Result then carries a telemetry.Trace with the per-interval
// time series and the throttle-decision event log (see OBSERVABILITY.md).
// Tracing is observation-only: a traced run's metrics are bit-identical to
// an untraced run of the same Spec.
package sim

import (
	"fmt"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim/engine"
	"ldsprefetch/internal/telemetry"
	"ldsprefetch/internal/workload"
)

// Result is the outcome of one single-core run.
type Result struct {
	Benchmark string
	Setup     string

	Cycles  int64
	Retired int64
	IPC     float64

	// BusTransfers is the number of block transfers on the core-memory bus
	// attributable to this run (fills + writebacks); BPKI normalizes per
	// 1000 retired instructions.
	BusTransfers int64
	BPKI         float64

	// Branches and Mispredicts are the speculative core model's branch
	// counts (zero — and omitted from serialized results — under the
	// default interval model, which ignores branch ops).
	Branches    int64 `json:",omitempty"`
	Mispredicts int64 `json:",omitempty"`

	DemandMisses int64
	// Accuracy and Coverage are the all-time per-prefetcher metrics.
	Accuracy [prefetch.NumSources]float64
	Coverage [prefetch.NumSources]float64
	Issued   [prefetch.NumSources]int64
	Used     [prefetch.NumSources]int64

	Mem memsys.Stats

	// PG usefulness (when Spec.ProfilePGs): Figure 10 histogram and the
	// Figure 4 beneficial/harmful split.
	PGHist       [4]int
	PGBeneficial int
	PGHarmful    int

	// Trace is the interval-level telemetry (when Spec.Trace); nil
	// otherwise.
	Trace *telemetry.Trace
}

// system is one assembled core + memory stack, ready to run.
type system struct {
	bench string
	ms    *memsys.MemSys
	core  *cpu.Core
	pgs   *profiling.Profile
	trace *telemetry.Trace
}

// assemble builds one core's full stack for benchmark bench, issuing memory
// requests through ctrl on a cores-wide machine. It is two loops over the
// spec's decoded components: each prefetcher is built and attached, then
// each control policy installs over every built prefetcher — both in spec
// order.
func assemble(bench string, p workload.Params, sp Spec, ctrl *dram.Controller, cores int) (*system, error) {
	parts, ooo, err := sp.validate()
	if err != nil {
		return nil, err
	}
	mcfg := memsys.DefaultConfig()
	if sp.MemCfg != nil {
		mcfg = *sp.MemCfg
	}
	if mcfg.Cores < 1 {
		// The real machine width, for the fair-share prefetch pacing
		// (memsys takes an unset width as one core). An explicit
		// MemCfg.Cores wins.
		mcfg.Cores = cores
	}
	if mcfg.BlockSize <= 0 || mcfg.BlockSize&(mcfg.BlockSize-1) != 0 {
		return nil, fmt.Errorf("sim: block size %d is not a positive power of two", mcfg.BlockSize)
	}
	tr, err := workload.BuildShared(bench, p)
	if err != nil {
		return nil, err
	}
	// Label the run by the trace's own name. For generator workloads the two
	// are identical (builders stamp the registered name); for replayed
	// captures (workload "trace:<digest>") the original generator name flows
	// through, so a replayed run's report is byte-identical to the generated
	// run it was captured from.
	bench = tr.Name
	if sp.IntervalLen > 0 {
		mcfg.IntervalLen = sp.IntervalLen
	}
	mcfg.IdealLDS = sp.IdealLDS
	mcfg.NoPollution = sp.NoPollution
	ccfg := cpu.DefaultConfig()
	if sp.CPUCfg != nil {
		ccfg = *sp.CPUCfg
	}

	ms := memsys.New(mcfg, tr.Mem, ctrl)
	level := prefetch.Aggressive
	if sp.InitialLevel != nil {
		level = sp.InitialLevel.Clamp()
	}

	// Telemetry. The recorder subscribes to feedback intervals before any
	// throttling controller, so each interval record captures the smoothed
	// counters exactly as the controllers are about to see them.
	var trc *telemetry.Trace
	var rec *telemetry.Recorder
	levels := make(map[prefetch.Source]prefetch.Throttleable)
	if sp.Trace {
		trc = &telemetry.Trace{Benchmark: bench, Setup: sp.Name}
		rec = telemetry.NewRecorder(trc, ms.Feedback())
		rec.Install()
	}

	env := &buildEnv{ms: ms, blockSize: mcfg.BlockSize, hints: sp.Hints, trace: trc}
	var pfs []instance
	for _, pt := range parts {
		if pt.prefetcher == nil {
			continue
		}
		inst := pt.prefetcher(env)
		ms.Attach(inst.pf)
		if trc != nil {
			trc.Sources = append(trc.Sources, inst.src)
		}
		if inst.throttleable != nil {
			levels[inst.src] = inst.throttleable
			inst.throttleable.SetLevel(level)
		}
		pfs = append(pfs, inst)
	}
	// Policies hook feedback in install order, after the recorder.
	for _, pt := range parts {
		if pt.install != nil {
			pt.install(env, pt.opts, pfs)
		}
	}

	// Nil ooo options (Spec.Core absent or "interval") select the interval
	// core; anything else runs the speculative out-of-order core.
	var model *cpu.Core
	if ooo == nil {
		model = cpu.NewInterval(ccfg, ms, tr)
	} else {
		model = cpu.NewOoO(ccfg, *ooo, ms, tr)
	}

	sys := &system{bench: bench, ms: ms, core: model, trace: trc}
	if rec != nil {
		// All gauge hooks are pure reads of simulation state: tracing must not
		// perturb the run. Occupancy gauges are separate mirror heaps, so
		// retiring them on query leaves MSHR/prefetch-queue arbitration alone.
		ms.EnableOccupancyGauges()
		c := sys.core
		rec.Retired = func() int64 { return c.Result().Retired }
		rec.BusTransfers = func() int64 { return ctrl.Transfers }
		rec.ReqBuf = ctrl.OutstandingAt
		rec.PFBacklog = ctrl.PrefetchBacklog
		rec.MSHR = ms.MSHROccupancyAt
		rec.PFQueue = ms.PFQueueOccupancyAt
		rec.Level = func(src prefetch.Source) int8 {
			if t, ok := levels[src]; ok {
				return int8(t.Level())
			}
			return -1
		}
	}
	if sp.ProfilePGs {
		sys.pgs = profiling.Attach(ms)
	}
	return sys, nil
}

// result extracts the metrics from a finished system. busTransfers is the
// share of bus traffic attributed to this run.
func (sys *system) result(setupName string, busTransfers int64) Result {
	cr := sys.core.Result()
	fb := sys.ms.Feedback()
	r := Result{
		Benchmark:    sys.bench,
		Setup:        setupName,
		Cycles:       cr.Cycles,
		Retired:      cr.Retired,
		IPC:          cr.IPC(),
		Branches:     cr.Branches,
		Mispredicts:  cr.Mispredicts,
		BusTransfers: busTransfers,
		DemandMisses: int64(fb.DemandMisses.Raw()),
		Mem:          sys.ms.Stats(),
		Trace:        sys.trace,
	}
	if cr.Retired > 0 {
		r.BPKI = float64(busTransfers) / (float64(cr.Retired) / 1000)
	}
	for src := prefetch.Source(0); src < prefetch.NumSources; src++ {
		r.Accuracy[src] = fb.RawAccuracy(src)
		r.Coverage[src] = fb.RawCoverage(src)
		r.Issued[src] = int64(fb.Sources[src].Issued.Raw())
		r.Used[src] = int64(fb.Sources[src].Used.Raw())
	}
	if sys.pgs != nil {
		r.PGHist = sys.pgs.Histogram()
		r.PGBeneficial, r.PGHarmful = sys.pgs.BeneficialHarmful()
	}
	return r
}

// controllerFor builds the shared DRAM controller sp configures for a
// cores-wide machine. It bounds the hardware overrides first, because the
// controller is built before assemble validates the rest of the spec.
func controllerFor(sp Spec, cores int) (*dram.Controller, error) {
	if err := sp.checkHardware(); err != nil {
		return nil, err
	}
	cfg := dram.DefaultConfig(cores)
	if sp.DRAMCfg != nil {
		cfg = *sp.DRAMCfg
		if cfg.RequestBuffer == 0 {
			cfg.RequestBuffer = 32 * cores
		}
	}
	return dram.NewController(cfg), nil
}

// RunSingleSpec builds and runs benchmark bench on a single-core system: it
// is RunAloneSpec at cores=1. The core talks to the controller directly —
// the epoch-barrier engine is a multi-core construct and single-core runs
// take the zero-overhead path regardless of Spec.Engine.
func RunSingleSpec(bench string, p workload.Params, sp Spec) (Result, error) {
	return RunAloneSpec(bench, p, sp, 1)
}

// MultiResult is the outcome of a multi-core run.
type MultiResult struct {
	Benchmarks []string
	Setup      string
	// PerCore holds each core's shared-run metrics (BPKI fields are
	// computed against total bus traffic and are meaningful only in
	// aggregate).
	PerCore []Result
	// AloneIPC is each benchmark's IPC running alone on the same
	// configuration (for weighted/harmonic speedup).
	AloneIPC []float64
	// WeightedSpeedup = Σ IPC_shared / IPC_alone (Snavely & Tullsen).
	WeightedSpeedup float64
	// HmeanSpeedup = N / Σ (IPC_alone / IPC_shared) (Luo et al.).
	HmeanSpeedup float64
	// BusTransfers is total traffic; BusPKI normalizes by total kilo-instr.
	BusTransfers int64
	BusPKI       float64
}

// engineEpochCycles is the epoch width of the multi-core execution engine,
// and engineEchoLookahead its cross-traffic collision half-window (see
// internal/sim/engine and dram.Controller.SetEcho). Both are simulator
// semantics — they shape how cross-core contention is resolved — so changing
// either changes multi-core results: bump jobs.SchemaVersion and regenerate
// the multi-core goldens if you do. The lookahead is calibrated near the
// visibility window of the pre-engine shared-controller loop (which advanced
// the laggard core 64 ops at a time, a few hundred cycles of bidirectional
// horizon visibility).
const (
	engineEpochCycles   = 2048
	engineEchoLookahead = 512
)

// RunSharedSpec runs the given benchmarks concurrently, one per core, on a
// shared DRAM controller (private L1/L2 per core, as in the paper's
// multi-core configuration), under the epoch-barrier execution engine
// (internal/sim/engine; Spec.Engine selects serial or parallel stepping,
// with byte-identical reports). The speedup-normalization fields (AloneIPC,
// WeightedSpeedup, HmeanSpeedup) are left zero; run each benchmark alone
// with RunAloneSpec and call Normalize to fill them. Job schedulers use this
// decomposition to cache and share alone runs across mixes.
func RunSharedSpec(benches []string, p workload.Params, sp Spec) (MultiResult, error) {
	n := len(benches)
	if n == 0 {
		return MultiResult{}, fmt.Errorf("sim: empty benchmark mix")
	}
	master, err := controllerFor(sp, n)
	if err != nil {
		return MultiResult{}, err
	}
	systems := make([]*system, n)
	shadows := make([]*dram.Controller, n)
	cores := make([]engine.Core, n)
	for i, b := range benches {
		// Each core runs against a private shadow controller that logs its
		// requests; the engine rebases shadows on the master at every epoch
		// boundary and replays the logs onto it at the barrier in
		// (core-index, program-order) arbitration order. The master holds
		// the one canonical interleaving — identical under both engines.
		shadow := dram.NewController(master.Config())
		shadow.StartLog()
		sys, err := assemble(b, p, sp, shadow, n)
		if err != nil {
			return MultiResult{}, err
		}
		systems[i] = sys
		shadows[i] = shadow
		cores[i] = sys.core
	}
	engine.Run(cores, shadows, master, engine.Config{
		EpochCycles:   engineEpochCycles,
		EchoLookahead: engineEchoLookahead,
		Parallel:      sp.Engine == EngineParallel,
	})

	res := MultiResult{Benchmarks: benches, Setup: sp.Name, BusTransfers: master.Transfers}
	var totalRetired int64
	for _, sys := range systems {
		sys.ms.FlushAccounting()
		r := sys.result(sp.Name, master.Transfers)
		totalRetired += r.Retired
		res.PerCore = append(res.PerCore, r)
	}
	if totalRetired > 0 {
		res.BusPKI = float64(master.Transfers) / (float64(totalRetired) / 1000)
	}
	return res, nil
}

// RunAloneSpec runs bench by itself on a memory system sized for a
// cores-core machine — the normalization runs RunMultiSpec uses to compute
// weighted and harmonic speedups. Its result depends only on (bench, p, sp,
// cores), so an alone run is shareable across every mix of the same width
// that includes the benchmark under the same configuration.
func RunAloneSpec(bench string, p workload.Params, sp Spec, cores int) (Result, error) {
	ctrl, err := controllerFor(sp, cores)
	if err != nil {
		return Result{}, err
	}
	sys, err := assemble(bench, p, sp, ctrl, cores)
	if err != nil {
		return Result{}, err
	}
	for !sys.core.Done() {
		sys.core.Step(1 << 16)
	}
	sys.ms.FlushAccounting()
	return sys.result(sp.Name, ctrl.Transfers), nil
}

// Normalize fills the speedup metrics from each benchmark's alone-run IPC
// (index-aligned with Benchmarks/PerCore).
func (mr *MultiResult) Normalize(aloneIPC []float64) {
	mr.AloneIPC = aloneIPC
	mr.WeightedSpeedup, mr.HmeanSpeedup = 0, 0
	var hs float64
	for i, r := range mr.PerCore {
		if aloneIPC[i] > 0 {
			mr.WeightedSpeedup += r.IPC / aloneIPC[i]
		}
		if r.IPC > 0 {
			hs += aloneIPC[i] / r.IPC
		}
	}
	if hs > 0 {
		mr.HmeanSpeedup = float64(len(mr.PerCore)) / hs
	}
}

// RunMultiSpec runs the given benchmarks concurrently, one per core, on a
// shared DRAM controller, then runs each benchmark alone on the same
// configuration to normalize the speedup metrics. It is RunSharedSpec +
// RunAloneSpec + Normalize in one call.
func RunMultiSpec(benches []string, p workload.Params, sp Spec) (MultiResult, error) {
	res, err := RunSharedSpec(benches, p, sp)
	if err != nil {
		return MultiResult{}, err
	}
	alone := make([]float64, len(benches))
	for i, b := range benches {
		r, err := RunAloneSpec(b, p, sp, len(benches))
		if err != nil {
			return MultiResult{}, err
		}
		alone[i] = r.IPC
	}
	res.Normalize(alone)
	return res, nil
}
