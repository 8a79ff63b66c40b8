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

func main() {
	id := flag.String("exp", "", "experiment id (see -list), or \"all\"")
	specArg := flag.String("spec", "", "sim.Spec JSON, inline or a file path (alternative to -exp)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	listConfigs := flag.Bool("list-configs", false, "list named configurations and registered components, then exit")
	scale := flag.Float64("scale", 1.0, "input scale (1.0 = reference inputs)")
	seed := flag.Int64("seed", 1, "workload seed")
	par := flag.Int("parallel", runtime.NumCPU(), "max concurrent simulations")
	format := flag.String("format", "text", "output format: text, json, or csv")
	traceDir := flag.String("trace", "", "directory for per-run interval/event JSONL traces (+ manifest)")
	outDir := flag.String("out", "", "directory to persist rendered reports (+ manifest)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (cached re-runs + resume)")
	verify := flag.Bool("verifycache", false, "re-run every cache hit and fail jobs on result mismatch")
	prof := procprof.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range exp.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}
	if *listConfigs {
		exp.PrintCatalog(os.Stdout)
		return
	}
	if *id == "" && *specArg == "" {
		fatal("experiments: -exp <id> or -spec <json> required (use -list to see ids)")
	}
	if *id != "" && *specArg != "" {
		fatal("experiments: -exp and -spec are mutually exclusive" + usageHint)
	}
	if *par <= 0 {
		fatal(fmt.Sprintf("experiments: -parallel must be > 0, got %d%s", *par, usageHint))
	}
	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		fatal(fmt.Sprintf("experiments: -scale must be a positive number, got %v%s", *scale, usageHint))
	}
	ext, ok := formatExt[*format]
	if !ok {
		fatal(fmt.Sprintf("experiments: unknown -format %q (text|json|csv)%s", *format, usageHint))
	}
	stopProfile, err := prof.Start()
	if err != nil {
		fatal("experiments:", err)
	}

	ctx := exp.NewContext()
	ctx.Params = workload.Params{Scale: *scale, Seed: *seed}
	ctx.TrainParams = workload.Params{Scale: *scale * workload.Train().Scale, Seed: workload.Train().Seed}
	ctx.Parallel = *par
	ctx.TraceDir = *traceDir
	ctx.CacheDir = *cacheDir
	ctx.VerifyCache = *verify

	label := *id
	var reports []exp.Report
	if *specArg != "" {
		sp, err := exp.LoadSpec(*specArg)
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
		reports, err = exp.Run(ctx, *id)
		if err != nil {
			fatal(err)
		}
	}
	for _, r := range reports {
		out, err := r.Render(*format)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			name := filepath.Join(*outDir, r.ID+"."+ext)
			if err := os.WriteFile(name, []byte(out+"\n"), 0o644); err != nil {
				fatal(err)
			}
		}
	}

	manifest := exp.NewManifest(label, *scale, *seed, *par)
	if *cacheDir != "" {
		manifest.AttachJobs(*cacheDir, ctx.Jobs())
		snap := ctx.Jobs().Metrics().Snapshot()
		fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d computed=%d uncached=%d coalesced=%d\n",
			snap.CacheHits, snap.CacheMisses, snap.Computed, snap.Uncached, snap.Coalesced)
	}
	for _, dir := range []string{*traceDir, *outDir} {
		if dir == "" {
			continue
		}
		if err := manifest.Write(dir); err != nil {
			fatal(err)
		}
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
