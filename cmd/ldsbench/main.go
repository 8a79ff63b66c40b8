// Command ldsbench runs the repository's benchmark set through
// testing.Benchmark and emits a versioned JSON artifact (BENCH_PR10.json by
// default) recording ns/op, B/op, allocs/op, and simulated-accesses/sec per
// benchmark, plus the metadata needed to compare runs over time (schema
// version, workload scale, Go version). CI runs the short set on every push
// and uploads the artifact; see BENCHMARKS.md for the schema and the
// comparison methodology.
//
// Usage:
//
//	ldsbench                      # short set -> BENCH_PR10.json
//	ldsbench -set full -out -     # every paper artifact, JSON to stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	lds "ldsprefetch"
	"ldsprefetch/internal/sim"
)

// schemaVersion identifies the artifact layout. Bump on breaking changes.
const schemaVersion = "ldsbench/2"

// benchmark is one measurable unit: either a paper artifact (an experiment
// id) or a micro-benchmark of the simulator.
type benchmark struct {
	name  string
	short bool // member of the CI short set
	run   func(b *testing.B, in lds.Input)
	// accesses returns the simulated demand accesses of one iteration, for
	// the simulated-accesses/sec rate (0 = not applicable).
	accesses func(in lds.Input) int64
}

// result is one row of the JSON artifact.
type result struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// SimAccessesPerSec is simulated demand accesses divided by wall time,
	// the simulator's end-to-end throughput metric (micro-benchmarks only).
	SimAccessesPerSec float64 `json:"simulated_accesses_per_sec,omitempty"`
}

// artifact is the full JSON document.
type artifact struct {
	SchemaVersion string   `json:"schema_version"`
	Set           string   `json:"set"`
	Scale         float64  `json:"scale"`
	Seed          int64    `json:"seed"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	Benchmarks    []result `json:"benchmarks"`
}

func experimentBench(id string) func(b *testing.B, in lds.Input) {
	return func(b *testing.B, in lds.Input) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reports, err := lds.Experiment(id, in)
			if err != nil {
				b.Fatal(err)
			}
			if len(reports) == 0 {
				b.Fatalf("%s produced no reports", id)
			}
		}
	}
}

// simulation is a short-set benchmark of one simulation; run returns the
// simulated demand accesses of one iteration.
func simulation(name string, run func(in lds.Input) (int64, error)) benchmark {
	return benchmark{
		name:  name,
		short: true,
		run: func(b *testing.B, in lds.Input) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := run(in); err != nil {
					b.Fatal(err)
				}
			}
		},
		accesses: func(in lds.Input) int64 {
			acc, err := run(in)
			if err != nil {
				return 0
			}
			return acc
		},
	}
}

// simBench measures one single-core run of bench under sp.
func simBench(name, bench string, sp lds.Spec) benchmark {
	return simulation(name, func(in lds.Input) (int64, error) {
		res, err := lds.Run(bench, in, sp)
		return res.Mem.Accesses, err
	})
}

// mixBench measures a 4-core multi-core mix end to end under one execution
// engine (sim.EngineSerial or sim.EngineParallel). The serial/parallel pair
// shares a workload, a spec, and — by the engine's determinism guarantee —
// a result, so the ns/op ratio is a pure measurement of the epoch-barrier
// parallelism (on a multi-core host; on a single-CPU host the pair instead
// bounds the goroutine/barrier overhead).
func mixBench(engine string) benchmark {
	benches := []string{"mcf", "xalancbmk", "omnetpp", "health"}
	sp := sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")
	sp.Engine = engine
	return simulation("mix4_"+engine, func(in lds.Input) (int64, error) {
		res, err := sim.RunSharedSpec(benches, in, sp)
		var acc int64
		for _, r := range res.PerCore {
			acc += r.Mem.Accesses
		}
		return acc, err
	})
}

func benchmarks() []benchmark {
	var out []benchmark

	// The proposal's hints are profiled once, outside the timed loop;
	// profile_pass measures the profiling pass itself.
	train := lds.Input{Scale: lds.BenchScale * lds.TrainInput().Scale, Seed: 1009}
	out = append(out,
		simBench("sim_baseline", "mst", lds.Baseline()),
		simBench("sim_cdp", "mst", lds.OriginalCDP()),
		simBench("sim_proposal", "mst", lds.Proposal(lds.ProfileHints("mst", train))))

	out = append(out, benchmark{
		name:  "profile_pass",
		short: true,
		run: func(b *testing.B, in lds.Input) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if lds.ProfileHints("mst", lds.Input{Scale: in.Scale, Seed: 1009}).Len() == 0 {
					b.Fatal("no hints")
				}
			}
		},
	})

	out = append(out, mixBench(sim.EngineSerial), mixBench(sim.EngineParallel))

	// Core-model pair: the same hybrid configuration under the default
	// interval core and the speculative ooo core. The ns/op ratio prices
	// the out-of-order model (branch prediction + wrong-path traffic);
	// the interval row must track sim_cdp's trajectory.
	hybrid := sim.NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")
	for _, core := range []string{"interval", "ooo"} {
		out = append(out, simBench("sim_hybrid_"+core, "mst", hybrid.WithCore(core, nil)))
	}

	// Paper artifacts. fig1 is in the short set: it is the headline artifact
	// and the alloc-trajectory acceptance gate.
	shortExps := map[string]bool{"fig1": true}
	for _, id := range []string{"fig1", "fig2", "fig4", "fig7", "fig8", "fig9",
		"fig10", "table7", "fig11", "fig12", "fig13", "fig14", "fig15",
		"sec23", "sec616", "sec67", "sec72", "sec74", "ablate"} {
		out = append(out, benchmark{name: id, short: shortExps[id], run: experimentBench(id)})
	}
	return out
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output path (- for stdout)")
	set := flag.String("set", "short", "benchmark set: short (CI) or full (every artifact)")
	scale := flag.Float64("scale", lds.BenchScale, "workload input scale")
	seed := flag.Int64("seed", 1, "workload input seed")
	flag.Parse()

	if *set != "short" && *set != "full" {
		fmt.Fprintln(os.Stderr, "ldsbench: -set must be short or full")
		os.Exit(2)
	}
	in := lds.Input{Scale: *scale, Seed: *seed}

	doc := artifact{
		SchemaVersion: schemaVersion,
		Set:           *set,
		Scale:         *scale,
		Seed:          *seed,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
	}
	for _, bm := range benchmarks() {
		if *set == "short" && !bm.short {
			continue
		}
		fmt.Fprintf(os.Stderr, "ldsbench: running %s\n", bm.name)
		r := testing.Benchmark(func(b *testing.B) { bm.run(b, in) })
		row := result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if bm.accesses != nil && r.NsPerOp() > 0 {
			if acc := bm.accesses(in); acc > 0 {
				row.SimAccessesPerSec = float64(acc) * 1e9 / float64(r.NsPerOp())
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, row)
		fmt.Fprintf(os.Stderr, "ldsbench: %-14s %12d ns/op %12d B/op %9d allocs/op\n",
			bm.name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ldsbench:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ldsbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ldsbench: wrote %s\n", *out)
}
