// Command ldssim runs one benchmark (or a comma-separated multi-core mix)
// under a chosen prefetching configuration and prints the key metrics.
//
// Usage:
//
//	ldssim -bench mst -config ecdp+throttle
//	ldssim -bench health -config stream -scale 0.5
//	ldssim -bench xalancbmk,astar -config ecdp+throttle   # dual-core
//	ldssim -bench mcf,mst,bisort,health -engine parallel   # parallel engine
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

// options are the command's flag values.
type options struct {
	bench, config, spec        string
	scale                      float64
	seed                       int64
	list, listConfigs          bool
	engine, coreKind, coreOpts string
	replay                     string
	traceDir, outDir, cache    string
	prof                       *procprof.Flags
}

// defineFlags defines the command's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.bench, "bench", "mst", "benchmark name")
	fs.StringVar(&o.config, "config", "ecdp+throttle", "prefetching configuration")
	fs.StringVar(&o.spec, "spec", "", "sim.Spec JSON, inline or a file path (overrides -config)")
	fs.Float64Var(&o.scale, "scale", 1.0, "input scale")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.BoolVar(&o.list, "list", false, "list benchmarks and exit")
	fs.BoolVar(&o.listConfigs, "list-configs", false, "list named configurations and registered components, then exit")
	fs.StringVar(&o.engine, "engine", "", "multi-core execution engine: serial (default) or parallel (up to min(GOMAXPROCS, cores) goroutines); reports are byte-identical")
	fs.StringVar(&o.coreKind, "core", "", "core timing model: interval (default) or ooo; see -list-configs")
	fs.StringVar(&o.coreOpts, "core-opts", "", "core model options as JSON (e.g. '{\"predictor\":\"tage\"}'); requires -core")
	fs.StringVar(&o.replay, "replay", "", "trace capture file to replay as the benchmark (overrides -bench)")
	fs.StringVar(&o.traceDir, "trace", "", "directory for interval/event JSONL traces (+ manifest)")
	fs.StringVar(&o.outDir, "out", "", "directory to persist the run summary (+ manifest)")
	fs.StringVar(&o.cache, "cache", "", "content-addressed result cache directory")
	o.prof = procprof.Register(fs)
	return o
}

// runSpec builds the run's configuration from -spec, or else from -config
// with the hint table hints returns (called only when the configuration
// consumes one), then applies -engine, -core and -core-opts. An error's text
// is what the command prints after "ldssim: ".
func (o *options) runSpec(hints func() *core.HintTable) (sim.Spec, error) {
	var setup sim.Spec
	if o.spec != "" {
		sp, err := exp.LoadSpec(o.spec)
		if err != nil {
			return sim.Spec{}, err
		}
		if sp.Name == "" {
			sp.Name = "spec"
		}
		if err := sp.Validate(); err != nil {
			return sim.Spec{}, err
		}
		setup = sp
	} else {
		var h *core.HintTable
		if sim.NamedNeedsHints(o.config) {
			h = hints()
		}
		var err error
		setup, err = sim.Named(o.config, h)
		if err != nil {
			return sim.Spec{}, fmt.Errorf("%v%s", err, usageHint)
		}
	}
	setup.Engine = o.engine
	if o.coreOpts != "" && o.coreKind == "" {
		return sim.Spec{}, fmt.Errorf("-core-opts requires -core%s", usageHint)
	}
	if o.coreKind != "" {
		c := sim.Component{Kind: o.coreKind, Options: json.RawMessage(o.coreOpts)}
		setup.Core = &c
	}
	if err := setup.Validate(); err != nil {
		return sim.Spec{}, fmt.Errorf("%v%s", err, usageHint)
	}
	return setup, nil
}

// usageHint is appended to flag-validation errors.
const usageHint = " (run 'ldssim -h' for usage)"

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	if o.list {
		exp.PrintWorkloads(os.Stdout)
		return
	}
	if o.listConfigs {
		exp.PrintCatalog(os.Stdout)
		return
	}
	if o.scale <= 0 || math.IsNaN(o.scale) || math.IsInf(o.scale, 0) {
		fatal(fmt.Sprintf("ldssim: -scale must be a positive number, got %v%s", o.scale, usageHint))
	}
	stopProfile, err := o.prof.Start()
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
	ctx.Params = workload.Params{Scale: o.scale, Seed: o.seed}
	ctx.TrainParams = workload.TrainFor(ctx.Params)
	ctx.TraceDir = o.traceDir
	ctx.CacheDir = o.cache
	ctx.Jobs() // opens the result store; a failure is recorded as a job error
	if errs := ctx.JobErrs(); len(errs) > 0 {
		fatal("ldssim:", errs[0])
	}
	benches := strings.Split(o.bench, ",")

	// A replayed capture substitutes for -bench: the capture registers as a
	// content-addressed workload and its provenance lands in the manifest.
	var traceRef *exp.TraceFileRef
	if o.replay != "" {
		name, hdr, err := workload.FromTraceFile(o.replay)
		if err != nil {
			fatal(fmt.Sprintf("ldssim: %v", err))
		}
		benches = []string{name}
		traceRef = &exp.TraceFileRef{
			Path:          o.replay,
			Generator:     hdr.Meta.Generator,
			Digest:        tracefile.HexDigest(hdr.Digest),
			FormatVersion: hdr.FormatVersion,
		}
	}

	// Hint tables are only profiled when the configuration consumes them;
	// a mix merges the per-benchmark tables.
	setup, err := o.runSpec(func() *core.HintTable { return ctx.Hints(benches) })
	if err != nil {
		fatal("ldssim: " + err.Error())
	}

	// Manifests record the named configuration, or the spec name for -spec
	// runs (the spec itself is what reproduces the run, not the label).
	configLabel := o.config
	if o.spec != "" {
		configLabel = "spec:" + setup.Name
	}

	// The summary goes to stdout and, with -out, to <out>/run.txt too.
	var sb strings.Builder
	w := io.Writer(os.Stdout)
	if o.outDir != "" {
		w = io.MultiWriter(os.Stdout, &sb)
	}

	if len(benches) > 1 {
		mr, err := ctx.RunMix(benches, setup)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "mix              %s\n", o.bench)
		fmt.Fprintf(w, "config           %s\n", setup.Name)
		fmt.Fprintf(w, "weighted speedup %.4f\n", mr.WeightedSpeedup)
		fmt.Fprintf(w, "hmean speedup    %.4f\n", mr.HmeanSpeedup)
		fmt.Fprintf(w, "bus transfers    %d (%.2f per kilo-instruction)\n", mr.BusTransfers, mr.BusPKI)
		for i, pc := range mr.PerCore {
			fmt.Fprintf(w, "core %d (%s): IPC %.4f shared, %.4f alone\n",
				i, pc.Benchmark, pc.IPC, mr.AloneIPC[i])
		}
		finish(ctx, o.cache)
		persist(o.traceDir, o.outDir, configLabel, benches, o.scale, o.seed, traceRef, sb.String())
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
	finish(ctx, o.cache)
	persist(o.traceDir, o.outDir, configLabel, benches, o.scale, o.seed, traceRef, sb.String())
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
