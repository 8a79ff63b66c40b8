package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ldsprefetch/internal/workload"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. The first repetition fills workload.BuildShared's cache, which the
// passes then clone from.
const setupReps = 5

// minPasses is the fewest passes a timed section runs, however long they
// take: the sim workloads need one cold pass and at least two warm ones.
const minPasses = 3

// run is the state of one benchmark process.
type run struct {
	cfg       config
	b         bench
	in, train workload.Params
	// work is the run's private directory for job stores.
	work string
	log  io.Writer
	// rec records spans; nil outside the traced section.
	rec  *recorder
	gate gate
}

func newRun(cfg config, w workloadDef, scale float64, work string, log io.Writer) *run {
	r := &run{
		cfg:   cfg,
		b:     w.newBench(),
		in:    workload.Params{Scale: scale, Seed: cfg.seed},
		train: workload.Params{Scale: scale * workload.Train().Scale, Seed: cfg.seed + trainSeedOffset},
		work:  work,
		log:   log,
	}
	r.gate.first = map[string]string{}
	r.gate.pins = pinsFor(cfg.workload, cfg.seed, scale)
	return r
}

// gate is the benchmark's correctness check. Every checked operation's
// result is reduced to a digest of its simulated statistics; the digest must
// equal the one this run saw first for the same label and, at the pinned
// seed and scale, the pinned one.
type gate struct {
	attempted, failed int
	// pins maps labels to pinned digests; nil away from the pinned input.
	pins  map[string]string
	first map[string]string
}

// digest is the hex SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func (g *gate) check(label string, v any) error {
	d, err := digest(v)
	if err != nil {
		return err
	}
	if g.pins != nil {
		want, ok := g.pins[label]
		if !ok {
			return fmt.Errorf("no pinned digest for %q", label)
		}
		if d != want {
			return fmt.Errorf("result digest %.12s differs from the pinned %.12s", d, want)
		}
	}
	if first, ok := g.first[label]; ok && d != first {
		return fmt.Errorf("result digest %.12s differs from this run's first %.12s", d, first)
	}
	g.first[label] = d
	return nil
}

// check runs fn as one checked operation of r: an error, a panic, or a
// result whose digest fails the gate counts it as failed.
func check[T any](r *run, label string, fn func() (T, error)) (res T, err error) {
	r.gate.attempted++
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if err != nil {
			r.gate.failed++
			fmt.Fprintf(r.log, "perfbench: %s %s: %v\n", r.cfg.workload, label, err)
		}
	}()
	if res, err = fn(); err != nil {
		return res, err
	}
	return res, r.gate.check(label, res)
}

// setupAll repeats the workload's set-up setupReps times and returns each
// repetition's wall seconds.
func (r *run) setupAll() ([]float64, error) {
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		// Start each repetition from a collected heap, so that garbage
		// left by the previous one does not land in its time.
		runtime.GC()
		end := r.rec.begin("setup", "")
		start := time.Now()
		err := r.b.setup(r, i == 0)
		secs = append(secs, time.Since(start).Seconds())
		end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return secs, nil
}

// measure runs passes until seconds have elapsed and at least minPasses ran.
func (r *run) measure(seconds float64) []passResult {
	start := time.Now()
	var ps []passResult
	for len(ps) < minPasses || time.Since(start).Seconds() < seconds {
		ps = append(ps, r.pass())
	}
	return ps
}

// pass runs one pass from a collected heap, so that how much of another
// pass's garbage it pays to collect does not vary.
func (r *run) pass() passResult {
	runtime.GC()
	return r.b.pass(r)
}

// isSweep reports whether the workload is fig1_sweep, whose passes are
// cold/warm sweep pairs rather than a cold first pass and warm repeats.
func (r *run) isSweep() bool {
	_, ok := r.b.(*sweep)
	return ok
}

// steady returns the passes that measure steady-state simulation: every
// sweep, or every sim pass after the process's first.
func (r *run) steady(ps []passResult) []passResult {
	if r.isSweep() {
		return ps
	}
	return ps[1:]
}

// timed is the --trace 0 run: the end-to-end metrics.
func (r *run) timed() (map[string]metric, error) {
	setup, err := r.setupAll()
	if err != nil {
		return nil, err
	}
	ps := r.measure(r.cfg.seconds)
	steady := r.steady(ps)
	fmt.Fprintf(r.log, "perfbench: %s: set-up seconds %.3f, pass seconds %.3f\n",
		r.cfg.workload, setup, field(ps, func(p passResult) float64 { return p.seconds }))

	rates := make([]float64, len(steady))
	for i, p := range steady {
		rates[i] = float64(p.accesses) / p.seconds
	}
	m := map[string]metric{
		"sim_accesses_per_s": {median(rates), "1/s"},
		"setup_s":            {median(setup), "s"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"success_frac":       {float64(r.gate.attempted-r.gate.failed) / float64(r.gate.attempted), "frac"},
	}
	m["wall_s"] = metric{median(field(ps, func(p passResult) float64 { return p.seconds })), "s"}
	if r.isSweep() {
		m["warm_s"] = metric{median(field(ps, func(p passResult) float64 { return p.warm })), "s"}
	} else {
		m["warm_s"] = metric{median(field(steady, func(p passResult) float64 { return p.seconds })), "s"}
	}
	return m, nil
}

// steadyWall is the wall time a pass of the workload takes once warm: the
// cold sweep for fig1_sweep, a warm pass otherwise.
func (r *run) steadyWall(ps []passResult) float64 {
	return median(field(r.steady(ps), func(p passResult) float64 { return p.seconds }))
}

func field(ps []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
