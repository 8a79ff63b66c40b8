package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"ldsprefetch/internal/sim"
)

// engineReps is how many times the traced run of mix4_parallel repeats the
// mix under each engine for engine.parallel_speedup.
const engineReps = 3

// traced is the --trace 1 run. It alternates untraced passes with traced
// ones (spans plus a CPU profile per pass) for --seconds, so that a drift in
// host speed reaches both alike, then runs the layer drivers and returns the
// per-layer metrics. The spans and the profiles are written to the workdir.
func (r *run) traced(host hostInfo) (map[string]metric, error) {
	rec := newRecorder()
	r.rec = rec
	if _, err := r.setupAll(); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	m["workload.build_s"] = metric{median(rec.childTotals("setup", "workload.build")), "s"}
	m["profiling.collect_s"] = metric{median(rec.childTotals("setup", "profiling.collect")), "s"}

	var plain, traced []passResult
	var profiles [][]byte
	var allocBytes, gcCycles uint64
	start := time.Now()
	for len(traced) < minPasses || time.Since(start).Seconds() < r.cfg.seconds {
		r.rec = nil
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plain = append(plain, r.pass())
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcCycles += uint64(after.NumGC - before.NumGC)

		r.rec = rec
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		end := rec.begin("pass", "")
		traced = append(traced, r.pass())
		end()
		pprof.StopCPUProfile()
		profiles = append(profiles, prof.Bytes())
	}
	n := float64(len(plain))
	m["go.alloc_mb"] = metric{float64(allocBytes) / (1 << 20) / n, "MB/pass"}
	m["go.gc_cycles"] = metric{float64(gcCycles) / n, "count/pass"}
	m["trace.overhead_frac"] = metric{r.steadyWall(traced)/r.steadyWall(plain) - 1, "frac"}

	byLayer := map[string]int64{}
	for _, p := range profiles {
		if err := addLayerTimes(byLayer, p); err != nil {
			return nil, err
		}
	}
	var total int64
	for _, v := range byLayer {
		total += v
	}
	share := func(l string) float64 { return float64(byLayer[l]) / float64(max(total, 1)) }
	for _, l := range selfLayers {
		m[l+".self_frac"] = metric{share(l), "frac"}
	}
	m["runtime.gc_frac"] = metric{share("gc"), "frac"}

	last := plain[len(plain)-1]
	last.tally.metrics(m)
	m["jobs.cache_hits"] = metric{float64(last.jobs.CacheHits), "count"}
	m["jobs.computed"] = metric{float64(last.jobs.Computed), "count"}
	m["jobs.failed"] = metric{float64(last.jobs.Failed), "count"}

	m["exp.run_s"] = metric{median(rec.durations("exp.run", "cold")), "s"}
	m["exp.run_warm_s"] = metric{median(rec.durations("exp.run", "warm")), "s"}
	if sw, ok := r.b.(*sweep); ok {
		// The sweep's simulations and profiling passes run inside the
		// scheduler, out of the benchmark's reach: time the same calls
		// directly, one stream-baseline cell and one profiling pass per
		// benchmark.
		collect, err := sw.directCalls(r)
		if err != nil {
			return nil, err
		}
		m["profiling.collect_s"] = metric{collect, "s"}
	}
	m["sim.run_s"] = metric{median(rec.durations("sim.run", "")), "s"}

	if err := r.layerDrivers(last.results, m); err != nil {
		return nil, err
	}

	m["engine.parallel_speedup"] = metric{0, "x"}
	if mix, ok := r.b.(*mixRun); ok {
		speedup, err := mix.engineSpeedup(r)
		if err != nil {
			return nil, err
		}
		m["engine.parallel_speedup"] = metric{speedup, "x"}
	}

	if err := r.writeTrace(host, profiles); err != nil {
		return nil, err
	}
	return m, nil
}

// engineSpeedup times the mix under the serial and the parallel engine,
// alternating, and returns the serial median over the parallel median. The
// two engines must agree on the result.
func (mix *mixRun) engineSpeedup(r *run) (float64, error) {
	var serial, parallel []float64
	for i := 0; i < engineReps; i++ {
		for _, eng := range []string{sim.EngineSerial, sim.EngineParallel} {
			var secs float64
			_, err := check(r, "mix", func() (sim.MultiResult, error) {
				defer r.rec.begin("engine", eng)()
				start := time.Now()
				res, err := mix.runMix(r, eng)
				secs = time.Since(start).Seconds()
				return res, err
			})
			if err != nil {
				return 0, err
			}
			if eng == sim.EngineSerial {
				serial = append(serial, secs)
			} else {
				parallel = append(parallel, secs)
			}
		}
	}
	return median(serial) / median(parallel), nil
}

// writeTrace writes the spans (with the host fingerprint) and the traced
// passes' CPU profiles of a traced run to the workdir. `go tool pprof`
// merges the profiles when given them all.
func (r *run) writeTrace(host hostInfo, profiles [][]byte) error {
	base := filepath.Join(r.cfg.workdir, fmt.Sprintf("%s-seed%d", r.cfg.workload, r.cfg.seed))
	b, err := json.MarshalIndent(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, r.rec.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	old, err := filepath.Glob(base + ".cpu-*.pprof")
	if err != nil {
		return err
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	for i, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu-%d.pprof", base, i), p, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(r.log, "perfbench: wrote %s.spans.json and %d CPU profiles %s.cpu-*.pprof\n", base, len(profiles), base)
	return nil
}
