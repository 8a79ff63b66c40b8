// Command ldssim runs one benchmark (or a comma-separated multi-core mix)
// under a chosen prefetching configuration and prints the key metrics.
//
// Usage:
//
//	ldssim -bench mst -config ecdp+throttle
//	ldssim -bench health -config stream -scale 0.5
//	ldssim -bench xalancbmk,astar -config ecdp+throttle   # dual-core
//	ldssim -bench mcf,mst,em3d,health -engine parallel     # parallel engine
//	ldssim -bench mst -core ooo                           # speculative core
//	ldssim -bench mst -core ooo -core-opts '{"predictor":"tage"}'
//	ldssim -bench mst -spec spec.json                     # declarative spec
//	ldssim -bench mst -spec '{"name":"x","components":[{"kind":"stream"}]}'
//	ldssim -bench mst -trace /tmp/t                       # + JSONL telemetry
//	ldssim -bench mst -cache results/cache                # cached re-runs
//	ldssim -replay run.ldstrc -config cdp+throttle        # replay a capture
//	ldssim -bench kvstore -cpuprofile cpu.pprof           # profile the process
//	ldssim -list
//	ldssim -list-configs
//
// Configurations: none, stream, cdp, cdp+throttle, ecdp, ecdp+throttle,
// markov, ghb, dbp, ideal — or an arbitrary composition via -spec, which
// takes a sim.Spec JSON document (inline or a file path) listing registered
// component kinds with options. -list-configs prints the named
// configurations and the component catalog.
//
// -cache <dir> routes the run through the job orchestrator's
// content-addressed result store: an identical re-run (same benchmark,
// configuration, scale, and seed) is served from the cache without
// simulating, and the store is shared with the experiments CLI and
// ldsserve. Traced runs bypass the cache (see ORCHESTRATION.md).
//
// -trace <dir> enables interval-level telemetry and persists the run's
// interval-series and throttle-event JSONL files (schemas: OBSERVABILITY.md)
// plus a reproducibility manifest; -out <dir> persists the printed summary
// and a manifest.
//
// -engine selects the multi-core execution engine: serial (the default)
// steps cores sequentially; parallel steps each epoch's cores on up to
// min(GOMAXPROCS, cores) goroutines. Reports are byte-identical either way (the engine's
// determinism guarantee — see DESIGN.md), so the knob is purely about
// wall-clock time and is ignored for single-benchmark runs.
//
// -core selects the core timing model: interval (the default dependence-graph
// model; naming it changes no result or cache key) or ooo (speculative
// out-of-order with branch prediction and squashed wrong-path memory
// traffic). -core-opts passes the ooo model's options as JSON (interval takes
// none); -list-configs names them.
//
// -replay <file> runs a trace capture (ldstrace capture, format:
// TRACEFORMAT.md) instead of generating a workload; the capture's
// digest is verified on load and recorded in persisted manifests, and the
// report is byte-identical to running the captured generator directly.
//
// -cpuprofile <file> and -memprofile <file> profile the process itself
// (workload builds, profiling passes and simulation) for `go tool pprof`;
// the files are written when the run succeeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/procprof"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/tracefile"
	"ldsprefetch/internal/workload"
)

func fatal(v ...interface{}) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(2)
}

func main() {
	bench := flag.String("bench", "mst", "benchmark name")
	config := flag.String("config", "ecdp+throttle", "prefetching configuration")
	specArg := flag.String("spec", "", "sim.Spec JSON, inline or a file path (overrides -config)")
	scale := flag.Float64("scale", 1.0, "input scale")
	seed := flag.Int64("seed", 1, "workload seed")
	list := flag.Bool("list", false, "list benchmarks and exit")
	listConfigs := flag.Bool("list-configs", false, "list named configurations and registered components, then exit")
	engine := flag.String("engine", "", "multi-core execution engine: serial (default) or parallel (up to min(GOMAXPROCS, cores) goroutines); reports are byte-identical")
	coreKind := flag.String("core", "", "core timing model: interval (default) or ooo; see -list-configs")
	coreOpts := flag.String("core-opts", "", "core model options as JSON (e.g. '{\"predictor\":\"tage\"}'); requires -core")
	replay := flag.String("replay", "", "trace capture file to replay as the benchmark (overrides -bench)")
	traceDir := flag.String("trace", "", "directory for interval/event JSONL traces (+ manifest)")
	outDir := flag.String("out", "", "directory to persist the run summary (+ manifest)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory")
	prof := procprof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		exp.PrintWorkloads(os.Stdout)
		return
	}
	if *listConfigs {
		exp.PrintCatalog(os.Stdout)
		return
	}
	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		fatal(fmt.Sprintf("ldssim: -scale must be a positive number, got %v (run 'ldssim -h' for usage)", *scale))
	}
	stopProfile, err := prof.Start()
	if err != nil {
		fatal("ldssim:", err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fatal("ldssim:", err)
		}
	}()

	// The harness context supplies the profile cache, the job scheduler and
	// its result store, and trace persistence.
	ctx := exp.NewContext()
	ctx.Params = workload.Params{Scale: *scale, Seed: *seed}
	ctx.TrainParams.Scale *= *scale
	ctx.TraceDir = *traceDir
	ctx.CacheDir = *cacheDir
	ctx.Jobs() // opens the result store; a failure is recorded as a job error
	if errs := ctx.JobErrs(); len(errs) > 0 {
		fatal("ldssim:", errs[0])
	}
	benches := strings.Split(*bench, ",")

	// A replayed capture substitutes for -bench: the capture registers as a
	// content-addressed workload and its provenance lands in the manifest.
	var traceRef *exp.TraceFileRef
	if *replay != "" {
		name, hdr, err := workload.FromTraceFile(*replay)
		if err != nil {
			fatal(fmt.Sprintf("ldssim: %v", err))
		}
		benches = []string{name}
		traceRef = &exp.TraceFileRef{
			Path:          *replay,
			Generator:     hdr.Meta.Generator,
			Digest:        tracefile.HexDigest(hdr.Digest),
			FormatVersion: hdr.FormatVersion,
		}
	}

	var setup sim.Spec
	if *specArg != "" {
		sp, err := exp.LoadSpec(*specArg)
		if err != nil {
			fatal(fmt.Sprintf("ldssim: %v", err))
		}
		if sp.Name == "" {
			sp.Name = "spec"
		}
		if err := sp.Validate(); err != nil {
			fatal(fmt.Sprintf("ldssim: %v", err))
		}
		setup = sp
	} else {
		// Hint tables are only profiled when the configuration consumes them;
		// a mix merges the per-benchmark tables.
		var h *core.HintTable
		if sim.NamedNeedsHints(*config) {
			h = ctx.Hints(benches)
		}
		var err error
		setup, err = sim.Named(*config, h)
		if err != nil {
			fatal(fmt.Sprintf("ldssim: %v (run 'ldssim -h' for usage)", err))
		}
	}
	setup.Engine = *engine
	if *coreOpts != "" && *coreKind == "" {
		fatal("ldssim: -core-opts requires -core (run 'ldssim -h' for usage)")
	}
	if *coreKind != "" {
		c := sim.Component{Kind: *coreKind, Options: json.RawMessage(*coreOpts)}
		setup.Core = &c
	}
	if err := setup.Validate(); err != nil {
		fatal(fmt.Sprintf("ldssim: %v (run 'ldssim -h' for usage)", err))
	}

	// Manifests record the named configuration, or the spec name for -spec
	// runs (the spec itself is what reproduces the run, not the label).
	configLabel := *config
	if *specArg != "" {
		configLabel = "spec:" + setup.Name
	}

	// The summary goes to stdout and, with -out, to <out>/run.txt too.
	var sb strings.Builder
	w := io.Writer(os.Stdout)
	if *outDir != "" {
		w = io.MultiWriter(os.Stdout, &sb)
	}

	if len(benches) > 1 {
		mr, err := ctx.RunMix(benches, setup)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "mix              %s\n", *bench)
		fmt.Fprintf(w, "config           %s\n", setup.Name)
		fmt.Fprintf(w, "weighted speedup %.4f\n", mr.WeightedSpeedup)
		fmt.Fprintf(w, "hmean speedup    %.4f\n", mr.HmeanSpeedup)
		fmt.Fprintf(w, "bus transfers    %d (%.2f per kilo-instruction)\n", mr.BusTransfers, mr.BusPKI)
		for i, pc := range mr.PerCore {
			fmt.Fprintf(w, "core %d (%s): IPC %.4f shared, %.4f alone\n",
				i, pc.Benchmark, pc.IPC, mr.AloneIPC[i])
		}
		finish(ctx, *cacheDir)
		persist(*traceDir, *outDir, configLabel, benches, *scale, *seed, traceRef, sb.String())
		return
	}

	r, err := ctx.RunOne(benches[0], setup)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "benchmark      %s\n", r.Benchmark)
	fmt.Fprintf(w, "config         %s\n", setup.Name)
	fmt.Fprintf(w, "instructions   %d\n", r.Retired)
	fmt.Fprintf(w, "cycles         %d\n", r.Cycles)
	fmt.Fprintf(w, "IPC            %.4f\n", r.IPC)
	fmt.Fprintf(w, "BPKI           %.2f\n", r.BPKI)
	fmt.Fprintf(w, "L2 demand miss %d\n", r.DemandMisses)
	if r.Branches > 0 {
		fmt.Fprintf(w, "branches       %d (%d mispredicted)\n", r.Branches, r.Mispredicts)
	}
	if r.Mem.WrongPathAccesses > 0 {
		fmt.Fprintf(w, "wrong-path     %d issued, %d to DRAM\n",
			r.Mem.WrongPathAccesses, r.Mem.WrongPathToDRAM)
	}
	for src := prefetch.SrcStream; src < prefetch.NumSources; src++ {
		if r.Issued[src] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8s issued %d, used %d (accuracy %.3f, coverage %.3f)\n",
			src, r.Issued[src], r.Used[src], r.Accuracy[src], r.Coverage[src])
	}
	finish(ctx, *cacheDir)
	persist(*traceDir, *outDir, configLabel, benches, *scale, *seed, traceRef, sb.String())
}

// finish fails the run on any recorded job error (a failed profile or trace
// write) and reports cache provenance on stderr when a cache is in use.
func finish(ctx *exp.Context, cacheDir string) {
	if errs := ctx.JobErrs(); len(errs) > 0 {
		fatal("ldssim:", errs[0])
	}
	if cacheDir == "" {
		return
	}
	snap := ctx.Jobs().Metrics().Snapshot()
	fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d computed=%d uncached=%d\n",
		snap.CacheHits, snap.CacheMisses, snap.Computed, snap.Uncached)
}

// persist writes the reproducibility manifest into each requested directory
// and the captured summary into <out>/run.txt.
func persist(traceDir, outDir, config string, benches []string, scale float64, seed int64, traceRef *exp.TraceFileRef, summary string) {
	m := exp.NewManifest("ldssim/"+config, scale, seed, 0)
	m.Benchmarks = benches
	m.TraceFile = traceRef
	for _, dir := range []string{traceDir, outDir} {
		if dir == "" {
			continue
		}
		if err := m.Write(dir); err != nil {
			fatal("ldssim: writing manifest:", err)
		}
	}
	if outDir != "" {
		if err := os.WriteFile(filepath.Join(outDir, "run.txt"), []byte(summary), 0o644); err != nil {
			fatal("ldssim: writing summary:", err)
		}
	}
}
