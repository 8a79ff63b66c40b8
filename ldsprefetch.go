// Package ldsprefetch reproduces "Techniques for Bandwidth-Efficient
// Prefetching of Linked Data Structures in Hybrid Prefetching Systems"
// (Ebrahimi, Mutlu, Patt — HPCA 2009) as a self-contained Go library: an
// execution-driven memory-hierarchy simulator, the paper's two contributions
// (compiler-guided content-directed prefetch filtering and coordinated
// prefetcher throttling), every baseline it compares against, synthetic
// proxies for its benchmark suite, and harnesses regenerating every table
// and figure of its evaluation.
//
// This file is the public façade: it re-exports the types a library user
// needs for the common flows. Every run is described by a Spec: the paper's
// configurations come from Baseline, OriginalCDP and Proposal, and any other
// composition of registered prefetchers and policies from NewSpec. The full
// machinery lives in internal/ —
// internal/core holds the paper's contribution, internal/exp the experiment
// definitions; see DESIGN.md for the complete map.
//
// # Quick start
//
//	hints := ldsprefetch.ProfileHints("mst", ldsprefetch.TrainInput())
//	res, _ := ldsprefetch.Run("mst", ldsprefetch.RefInput(), ldsprefetch.Proposal(hints))
//	fmt.Printf("IPC %.3f, BPKI %.1f\n", res.IPC, res.BPKI)
package ldsprefetch

import (
	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// Input selects a workload input set (size scale and seed).
type Input = workload.Params

// RefInput returns the reference (measurement) input.
func RefInput() Input { return workload.Ref() }

// TrainInput returns the profiling input (smaller scale, different seed).
func TrainInput() Input { return workload.Train() }

// Spec is the declarative, serializable run configuration: an ordered list
// of component kinds (prefetchers and control policies) with typed options,
// plus spec-level inputs (hint table, oracles, hardware overrides). See
// sim.Spec and the component table in internal/sim/components.go.
type Spec = sim.Spec

// NewSpec builds a Spec from component kinds with default options, e.g.
// NewSpec("hybrid", "stream", "cdp", "throttle").
func NewSpec(name string, kinds ...string) Spec { return sim.NewSpec(name, kinds...) }

// Result carries a single-core run's metrics (IPC, BPKI, per-prefetcher
// accuracy and coverage, memory-system statistics).
type Result = sim.Result

// MultiResult carries a multi-core run's metrics (weighted and harmonic
// speedups, bus traffic).
type MultiResult = sim.MultiResult

// HintTable is the compiler-provided per-load hint bit-vector table
// consumed by ECDP.
type HintTable = core.HintTable

// Baseline returns the paper's baseline: an aggressive stream prefetcher.
func Baseline() Spec { return named("stream", nil) }

// OriginalCDP returns the stream + original content-directed prefetcher
// configuration that motivates the paper (Figure 2).
func OriginalCDP() Spec { return named("cdp", nil) }

// Proposal returns the paper's full proposal: stream + ECDP with the given
// hints, under coordinated prefetcher throttling.
func Proposal(hints *HintTable) Spec { return named("ecdp+throttle", hints) }

// named resolves one of the built-in named configurations (sim.Named).
func named(config string, hints *HintTable) Spec {
	sp, err := sim.Named(config, hints)
	if err != nil {
		panic(err) // unreachable: the façade only names registered configs
	}
	return sp
}

// Benchmarks lists the paper's benchmark proxies in paper order.
func Benchmarks() []string { return workload.PaperNames() }

// ServerBenchmarks lists the beyond-the-paper server-class workload
// families (EXPERIMENTS.md "beyond the paper" chapter); they run through
// Run/RunMulti/ProfileHints like any benchmark.
func ServerBenchmarks() []string { return workload.ServerNames() }

// PointerIntensiveBenchmarks lists the paper's 15-benchmark main suite.
func PointerIntensiveBenchmarks() []string { return workload.PointerIntensiveNames() }

// Run simulates one benchmark on a single-core system.
func Run(bench string, in Input, sp Spec) (Result, error) {
	return sim.RunSingleSpec(bench, in, sp)
}

// RunMulti simulates one benchmark per core on a shared memory system.
func RunMulti(benches []string, in Input, sp Spec) (MultiResult, error) {
	return sim.RunMultiSpec(benches, in, sp)
}

// ProfileHints runs the paper's compiler profiling pass for bench on the
// given input and returns the beneficial-PG hint table.
func ProfileHints(bench string, in Input) *HintTable {
	tr, err := workload.BuildShared(bench, in)
	if err != nil {
		return core.NewHintTable()
	}
	prof := profiling.Collect(tr, memsys.DefaultConfig(), cpu.DefaultConfig())
	return prof.Hints(0)
}

// Experiment reproduces one of the paper's tables/figures by id (e.g.
// "fig7"; "all" for the complete evaluation) and returns the rendered
// reports. See DESIGN.md for the experiment index.
func Experiment(id string, in Input) ([]string, error) {
	ctx := exp.NewContext()
	ctx.Params = in
	ctx.TrainParams = workload.TrainFor(in)
	reports, err := exp.Run(ctx, id)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = r.String()
	}
	return out, nil
}
