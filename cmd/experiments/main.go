// Command experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig7            # one experiment
//	experiments -exp all             # the full evaluation
//	experiments -list                # available experiment ids
//	experiments -list-configs        # named configs + component catalog
//	experiments -exp fig7 -scale 0.5 # smaller inputs (faster, noisier)
//	experiments -spec spec.json      # custom sim.Spec vs the stream baseline
//	experiments -exp fig7 -cpuprofile cpu.pprof  # profile the process
//
// Persisting runs:
//
//	experiments -exp fig7 -out results/fig7        # rendered reports + manifest
//	experiments -exp fig7 -trace results/fig7-trc  # per-run JSONL telemetry + manifest
//	experiments -exp all  -cache results/cache     # content-addressed result cache
//
// -cache journals every completed simulation to a content-addressed store
// as it finishes: re-running after a code or parameter change only
// simulates the invalidated cells, and an interrupted sweep resumes by
// skipping journaled ones. -verifycache re-executes every cache hit and
// fails the job if the stored result does not match (determinism check).
// Cache provenance (hit vs computed, per job) is recorded in the manifest.
// See ORCHESTRATION.md.
//
// -trace enables interval-level telemetry on every simulation and writes one
// pair of <bench>__<setup>.{intervals,events}.jsonl files per run, plus a
// manifest.json recording scale/seed/parallelism, the go toolchain, and the
// git revision. The schemas are documented in OBSERVABILITY.md.
//
// -cpuprofile <file> and -memprofile <file> profile the process itself for
// `go tool pprof`; the files are written once every report is out, failed
// jobs or not.
//
// Failed jobs (contained worker panics, trace-write errors) do not abort
// the sweep: they are appended to the affected report's footer and the
// command exits 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/procprof"
	"ldsprefetch/internal/workload"
)

func fatal(v ...interface{}) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(2)
}

// usageHint is appended to flag-validation errors.
const usageHint = " (run 'experiments -h' for usage)"

var formatExt = map[string]string{"": "txt", "text": "txt", "json": "json", "csv": "csv"}

// options are the command's flag values.
type options struct {
	id, spec                string
	list, listConfigs       bool
	scale                   float64
	seed                    int64
	par                     int
	format                  string
	traceDir, outDir, cache string
	verify                  bool
	prof                    *procprof.Flags
}

// defineFlags defines the command's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.id, "exp", "", "experiment id (see -list), or \"all\"")
	fs.StringVar(&o.spec, "spec", "", "sim.Spec JSON, inline or a file path (alternative to -exp)")
	fs.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	fs.BoolVar(&o.listConfigs, "list-configs", false, "list named configurations and registered components, then exit")
	fs.Float64Var(&o.scale, "scale", 1.0, "input scale (1.0 = reference inputs)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.par, "parallel", runtime.NumCPU(), "max concurrent simulations")
	fs.StringVar(&o.format, "format", "text", "output format: text, json, or csv")
	fs.StringVar(&o.traceDir, "trace", "", "directory for per-run interval/event JSONL traces (+ manifest)")
	fs.StringVar(&o.outDir, "out", "", "directory to persist rendered reports (+ manifest)")
	fs.StringVar(&o.cache, "cache", "", "content-addressed result cache directory (cached re-runs + resume)")
	fs.BoolVar(&o.verify, "verifycache", false, "re-run every cache hit and fail jobs on result mismatch")
	o.prof = procprof.Register(fs)
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	if o.list {
		for _, e := range exp.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}
	if o.listConfigs {
		exp.PrintCatalog(os.Stdout)
		return
	}
	if o.id == "" && o.spec == "" {
		fatal("experiments: -exp <id> or -spec <json> required (use -list to see ids)")
	}
	if o.id != "" && o.spec != "" {
		fatal("experiments: -exp and -spec are mutually exclusive" + usageHint)
	}
	if o.par <= 0 {
		fatal(fmt.Sprintf("experiments: -parallel must be > 0, got %d%s", o.par, usageHint))
	}
	if o.scale <= 0 || math.IsNaN(o.scale) || math.IsInf(o.scale, 0) {
		fatal(fmt.Sprintf("experiments: -scale must be a positive number, got %v%s", o.scale, usageHint))
	}
	ext, ok := formatExt[o.format]
	if !ok {
		fatal(fmt.Sprintf("experiments: unknown -format %q (text|json|csv)%s", o.format, usageHint))
	}
	stopProfile, err := o.prof.Start()
	if err != nil {
		fatal("experiments:", err)
	}

	ctx := exp.NewContext()
	ctx.Params = workload.Params{Scale: o.scale, Seed: o.seed}
	ctx.TrainParams = workload.TrainFor(ctx.Params)
	ctx.Parallel = o.par
	ctx.TraceDir = o.traceDir
	ctx.CacheDir = o.cache
	ctx.VerifyCache = o.verify

	label := o.id
	var reports []exp.Report
	if o.spec != "" {
		sp, err := exp.LoadSpec(o.spec)
		if err != nil {
			fatal(fmt.Sprintf("experiments: %v", err))
		}
		if err := sp.Validate(); err != nil {
			fatal(fmt.Sprintf("experiments: %v", err))
		}
		label = "spec:" + sp.Name
		reports = []exp.Report{exp.CustomSpec(ctx, sp)}
	} else {
		var err error
		reports, err = exp.Run(ctx, o.id)
		if err != nil {
			fatal(err)
		}
	}
	for _, r := range reports {
		out, err := r.Render(o.format)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		if o.outDir != "" {
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				fatal(err)
			}
			name := filepath.Join(o.outDir, r.ID+"."+ext)
			if err := os.WriteFile(name, []byte(out+"\n"), 0o644); err != nil {
				fatal(err)
			}
		}
	}

	if err := ctx.WriteManifest(exp.NewManifest(label, o.scale, o.seed, o.par), o.outDir); err != nil {
		fatal(err)
	}
	if o.cache != "" {
		snap := ctx.Jobs().Metrics().Snapshot()
		fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d computed=%d uncached=%d coalesced=%d\n",
			snap.CacheHits, snap.CacheMisses, snap.Computed, snap.Uncached, snap.Coalesced)
	}
	if err := stopProfile(); err != nil {
		fatal("experiments:", err)
	}
	if errs := ctx.JobErrs(); len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d job(s) failed:\n", len(errs))
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, " -", e)
		}
		os.Exit(1)
	}
}
