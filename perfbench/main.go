// Command perfbench is the repository's end-to-end benchmark. It runs one of
// four workloads (see README.md for why each exists) against the simulator's
// public packages, checks the simulated results against pinned digests, and
// prints one JSON summary as the last line of standard output:
//
//	perfbench --workload lds_ecdp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the summary carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the same workload runs again with spans and a
// CPU profile, and the summary carries the per-layer metrics instead; the
// spans and the profile are written under --workdir when the run ends.
//
// The simulator has no real-hardware reference in this repository: the
// benchmark measures how fast the model runs and whether its results stay
// byte-identical, never how accurate the model is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale overrides the workload's input scale; 0 keeps the default.
	scale float64
	// workdir holds the job stores of the run and, for traced runs, the
	// span and profile files. It is emptied of the run's stores at exit.
	workdir string
}

// metric is one named value of the summary line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args, runs the benchmark and writes the summary to stdout. It
// returns the process exit code: 0 when a summary was printed, 2 for usage
// errors, 1 when the run could not complete.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed section in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 0, "input scale override (0 = the workload's default)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench-run", "directory for job stores, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 || cfg.scale < 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --scale non-negative")
		return 2
	}
	cfg.trace = trace == 1

	sum, host, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	hb, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	sb, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", hb, sb)
	return 0
}

// execute runs one workload as cfg asks and returns its summary.
func execute(cfg config, log io.Writer) (summary, hostInfo, error) {
	w := workloads[cfg.workload]
	scale := cfg.scale
	if scale == 0 {
		scale = w.scale
	}
	host := fingerprint(cfg, scale)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return summary{}, host, fmt.Errorf("creating workdir: %w", err)
	}
	work, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return summary{}, host, fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(work)

	r := newRun(cfg, w, scale, work, log)
	var m map[string]metric
	if cfg.trace {
		m, err = r.traced(host)
	} else {
		m, err = r.timed()
	}
	if err != nil {
		return summary{}, host, err
	}
	return summary{
		Correct:   r.gate.failed == 0,
		Attempted: r.gate.attempted,
		Failed:    r.gate.failed,
		Metrics:   m,
	}, host, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
