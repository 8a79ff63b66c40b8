package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
)

// Config parameterizes a Scheduler. Every job executes in this process, on
// the worker pool that Workers or Slots bounds.
type Config struct {
	// Workers bounds concurrent job execution (default: NumCPU). Ignored
	// when Slots is provided.
	Workers int
	// Slots, when non-nil, is a shared worker pool: several schedulers
	// passing the same channel share one global concurrency bound while
	// keeping per-scheduler statistics (the job service runs one scheduler
	// per sweep this way).
	Slots chan struct{}
	// Store, when non-nil, enables the content-addressed result cache and
	// the completion journal.
	Store *Store
	// Timeout bounds one execution (0 = unbounded). A timed-out execution
	// is abandoned: its goroutine finishes in the background and its
	// result is discarded, so the concurrency bound can transiently be
	// exceeded by abandoned workers. A failed job is never re-run: a job is
	// a pure function of its key, so it would fail the same way again.
	Timeout time.Duration
	// Verify re-executes every cache hit and fails the job if the fresh
	// result does not match the stored one — a determinism check for the
	// simulator and the store.
	Verify bool
}

// Record is the provenance of one completed job, in submission-completion
// order: what ran, under which key, and whether the result came from the
// cache ("hit"), a fresh execution ("computed" or, for uncacheable jobs,
// "uncached"), another in-flight identical job ("coalesced"), or failed.
type Record struct {
	Kind       string   `json:"kind"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Setup      string   `json:"setup,omitempty"`
	Key        string   `json:"key,omitempty"`
	Provenance string   `json:"provenance"`
	Error      string   `json:"error,omitempty"`
}

// Scheduler executes simulation jobs on a bounded worker pool with cache
// lookup, in-flight deduplication, panic containment, and timeout.
// The zero value is not usable; construct with New. All methods are safe
// for concurrent use.
type Scheduler struct {
	cfg     Config
	slots   chan struct{}
	metrics Metrics

	mu sync.Mutex
	//ldslint:guardedby mu
	inflight map[string]*call
	//ldslint:guardedby mu
	records []Record
}

type call struct {
	done chan struct{}
	res  any
	err  error
}

// New returns a Scheduler for cfg.
func New(cfg Config) *Scheduler {
	slots := cfg.Slots
	if slots == nil {
		n := cfg.Workers
		if n <= 0 {
			n = runtime.NumCPU()
		}
		slots = make(chan struct{}, n)
	}
	return &Scheduler{
		cfg:      cfg,
		slots:    slots,
		inflight: make(map[string]*call),
	}
}

// Metrics returns the scheduler's counters.
func (s *Scheduler) Metrics() *Metrics { return &s.metrics }

// Records returns the completion records so far, in completion order.
func (s *Scheduler) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

// jobDesc describes one job to the generic execution path.
type jobDesc struct {
	kind      string
	benches   []string
	setupName string
	key       Key  // zero Hash means uncacheable
	cacheable bool // false: skip cache and dedup (traced runs)
}

func (s *Scheduler) record(rec Record, d time.Duration) {
	s.mu.Lock()
	s.records = append(s.records, rec)
	s.mu.Unlock()
	if s.cfg.Store != nil {
		// Journal failures must not fail a job that produced a result.
		_ = s.cfg.Store.appendJournal(rec, d)
	}
}

// timeoutError marks an execution abandoned at the deadline.
type timeoutError struct{ d time.Duration }

func (e timeoutError) Error() string {
	return fmt.Sprintf("job timed out after %s (worker abandoned)", e.d)
}

// execute runs fn once under a worker slot, with panic containment and the
// configured timeout.
func (s *Scheduler) execute(fn func() (any, error)) (any, error) {
	s.metrics.QueueDepth.Add(1)
	s.slots <- struct{}{}
	s.metrics.QueueDepth.Add(-1)
	s.metrics.WorkersBusy.Add(1)
	defer func() {
		s.metrics.WorkersBusy.Add(-1)
		<-s.slots
	}()
	type outcome struct {
		res any
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.Panics.Add(1)
				ch <- outcome{err: fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())}
			}
		}()
		res, err := fn()
		ch <- outcome{res: res, err: err}
	}()
	if s.cfg.Timeout <= 0 {
		o := <-ch
		return o.res, o.err
	}
	timer := time.NewTimer(s.cfg.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		s.metrics.Timeouts.Add(1)
		return nil, timeoutError{s.cfg.Timeout}
	}
}

// canonicalResult re-encodes a result for the determinism check. JSON
// round-trips float64 exactly, so two results encode equal iff their values
// are equal.
func canonicalResult(v any) ([]byte, error) { return json.Marshal(v) }

// do is the generic job path: dedup, cache lookup, bounded execution,
// journaling. newOut allocates the typed destination a cached result is
// decoded into; it is only consulted for cacheable jobs with a store.
func (s *Scheduler) do(d jobDesc, run func() (any, error), newOut func() any) (any, error) {
	s.metrics.Submitted.Add(1)
	rec := Record{Kind: d.kind, Benchmarks: d.benches, Setup: d.setupName}
	if !d.cacheable {
		return s.doLeader(d, &rec, run, newOut)
	}
	rec.Key = d.key.Hash

	// In-flight dedup: identical concurrent jobs share one execution.
	s.mu.Lock()
	if c, ok := s.inflight[d.key.Hash]; ok {
		s.mu.Unlock()
		<-c.done
		s.metrics.Coalesced.Add(1)
		if c.err == nil {
			s.metrics.Completed.Add(1)
			rec.Provenance = "coalesced"
		} else {
			s.metrics.Failed.Add(1)
			rec.Provenance = "failed"
			rec.Error = c.err.Error()
		}
		s.record(rec, 0)
		return c.res, c.err
	}
	c := &call{done: make(chan struct{})}
	s.inflight[d.key.Hash] = c
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, d.key.Hash)
		s.mu.Unlock()
		close(c.done)
	}()

	res, err := s.doLeader(d, &rec, run, newOut)
	c.res, c.err = res, err
	return res, err
}

// doLeader is the non-coalesced half of do: a store lookup for cacheable
// jobs, then one execution recorded as "computed" (and stored) or, for an
// uncacheable job, "uncached".
func (s *Scheduler) doLeader(d jobDesc, rec *Record, run func() (any, error), newOut func() any) (any, error) {
	if d.cacheable && s.cfg.Store != nil {
		out := newOut()
		hit, err := s.cfg.Store.Get(d.key, d.kind, out)
		if err == nil && hit {
			s.metrics.CacheHits.Add(1)
			if s.cfg.Verify {
				if verr := s.verifyHit(d, out, run); verr != nil {
					s.metrics.Failed.Add(1)
					rec.Provenance = "failed"
					rec.Error = verr.Error()
					s.record(*rec, 0)
					return nil, verr
				}
			}
			s.metrics.Completed.Add(1)
			rec.Provenance = "hit"
			s.record(*rec, 0)
			return out, nil
		}
		// A corrupt object reads as a miss worth recomputing; remember the
		// problem in the record but continue.
		if err != nil {
			rec.Error = err.Error()
		}
		s.metrics.CacheMisses.Add(1)
	}

	start := time.Now()
	res, err := s.execute(run)
	dur := time.Since(start)
	s.metrics.observeLatency(dur)
	if err != nil {
		s.metrics.Failed.Add(1)
		rec.Provenance = "failed"
		rec.Error = err.Error()
		s.record(*rec, dur)
		return nil, err
	}
	if !d.cacheable {
		s.metrics.Completed.Add(1)
		s.metrics.Uncached.Add(1)
		rec.Provenance = "uncached"
	} else {
		s.metrics.Completed.Add(1)
		s.metrics.Computed.Add(1)
		rec.Provenance = "computed"
		if s.cfg.Store != nil {
			if perr := s.cfg.Store.Put(d.key, d.kind, res); perr != nil {
				// The result is valid even if journaling it failed; surface
				// the problem through the record.
				rec.Error = perr.Error()
			}
		}
	}
	s.record(*rec, dur)
	return res, nil
}

// verifyHit recomputes a cache hit on the worker pool, with the same
// timeout as any execution, and compares it against the stored result.
func (s *Scheduler) verifyHit(d jobDesc, cached any, run func() (any, error)) error {
	s.metrics.VerifyRuns.Add(1)
	fresh, err := s.execute(run)
	if err != nil {
		return fmt.Errorf("verifying cache hit %s: recompute failed: %w", d.key.Hash, err)
	}
	cb, err := canonicalResult(cached)
	if err != nil {
		return fmt.Errorf("verifying cache hit %s: %w", d.key.Hash, err)
	}
	fb, err := canonicalResult(fresh)
	if err != nil {
		return fmt.Errorf("verifying cache hit %s: %w", d.key.Hash, err)
	}
	if !bytes.Equal(cb, fb) {
		s.metrics.VerifyBad.Add(1)
		return fmt.Errorf("cache hit %s (%s/%s) does not match a fresh run: determinism violation or stale schema",
			d.key.Hash, d.kind, d.setupName)
	}
	return nil
}

// rejectSpec records a job whose input failed validation (an invalid spec,
// an unknown benchmark) as a failed job, so invalid cells surface in sweep
// records and metrics like any other failure.
func (s *Scheduler) rejectSpec(kind string, benches []string, name string, err error) error {
	s.metrics.Submitted.Add(1)
	s.metrics.Failed.Add(1)
	s.record(Record{Kind: kind, Benchmarks: benches, Setup: name,
		Provenance: "failed", Error: err.Error()}, 0)
	return err
}

// runJob is the one path of every job: it validates sp, derives the key of
// kind over benches on a cores-wide machine, and runs fn through do. A spec
// that does not validate or key is rejected as one failed job without
// consuming a worker slot. A traced spec (sp.Trace) runs uncached: telemetry
// is not stored.
func runJob[T any](s *Scheduler, kind string, benches []string, cores int, p workload.Params, sp sim.Spec, fn func() (T, error)) (*T, error) {
	if err := sp.Validate(); err != nil {
		return nil, s.rejectSpec(kind, benches, sp.Name, err)
	}
	key, err := newKey(kind, benches, cores, p, sp)
	if err != nil {
		return nil, s.rejectSpec(kind, benches, sp.Name, err)
	}
	d := jobDesc{kind: kind, benches: benches, setupName: sp.Name}
	if !sp.Trace {
		d.key, d.cacheable = key, true
	}
	v, err := s.do(d, func() (any, error) {
		r, err := fn()
		if err != nil {
			return nil, err
		}
		return &r, nil
	}, func() any { return new(T) })
	if err != nil {
		return nil, err
	}
	return v.(*T), nil
}

// SingleSpec runs benchmark bench under sp as one job. An invalid spec
// fails with a typed *sim.SpecError, recorded as a failed job.
func (s *Scheduler) SingleSpec(bench string, p workload.Params, sp sim.Spec) (sim.Result, error) {
	r, err := runJob(s, "single", []string{bench}, 1, p, sp, func() (sim.Result, error) {
		return sim.RunSingleSpec(bench, p, sp)
	})
	if err != nil {
		return sim.Result{Benchmark: bench, Setup: sp.Name}, err
	}
	return *r, nil
}

// MultiSpec runs the benchmarks as a multi-core mix. The shared run and
// each alone-run normalization execute as separate jobs, so alone runs are
// cached and shared across every mix (and every sweep) that needs them.
// Like SingleSpec, an invalid spec fails with a typed error up front, as
// one failed job.
func (s *Scheduler) MultiSpec(benches []string, p workload.Params, sp sim.Spec) (sim.MultiResult, error) {
	n := len(benches)
	if n == 0 {
		return sim.MultiResult{}, fmt.Errorf("jobs: empty benchmark mix")
	}
	fail := sim.MultiResult{Benchmarks: benches, Setup: sp.Name}
	if err := sp.Validate(); err != nil {
		return fail, s.rejectSpec("shared", benches, sp.Name, err)
	}
	// Alone runs never need telemetry: their only consumer is speedup
	// normalization, and tracing is observation-only, so stripping it keeps
	// them cacheable even inside traced sweeps.
	aloneSpec := sp
	aloneSpec.Trace = false

	var (
		wg        sync.WaitGroup
		shared    *sim.MultiResult
		sharedErr error
		alone     = make([]float64, n)
		aloneErrs = make([]error, n)
	)
	wg.Add(n + 1)
	go func() {
		defer wg.Done()
		shared, sharedErr = runJob(s, "shared", benches, n, p, sp, func() (sim.MultiResult, error) {
			return sim.RunSharedSpec(benches, p, sp)
		})
	}()
	for i, b := range benches {
		go func() {
			defer wg.Done()
			r, err := runJob(s, "alone", []string{b}, n, p, aloneSpec, func() (sim.Result, error) {
				return sim.RunAloneSpec(b, p, aloneSpec, n)
			})
			if err != nil {
				aloneErrs[i] = err
				return
			}
			alone[i] = r.IPC
		}()
	}
	wg.Wait()

	if sharedErr != nil {
		return fail, sharedErr
	}
	for i, err := range aloneErrs {
		if err != nil {
			return fail, fmt.Errorf("alone run %s: %w", benches[i], err)
		}
	}
	mr := *shared
	mr.Normalize(alone)
	return mr, nil
}

// profiler is one of the paper's two profiling implementations (Section
// 3, "Profiling Implementation"): the fixed spec that names it in cache keys
// and the pass that collects it.
type profiler struct {
	spec    sim.Spec
	collect func(*trace.Trace, memsys.Config, cpu.Config) *profiling.Profile
}

// profileSpec names a profiler in its cache key. The components are the
// stream + unfiltered CDP pair every profiling pass simulates, so a stream
// or cdp component version bump invalidates stored profiles too.
func profileSpec(name string) sim.Spec {
	return sim.Spec{Name: name, ProfilePGs: true,
		Components: []sim.Component{{Kind: "stream"}, {Kind: "cdp"}}}
}

var (
	simProfiler       = profiler{profileSpec("profile"), profiling.Collect}
	informingProfiler = profiler{profileSpec("profile-informing"), profiling.CollectInforming}
)

// Profile collects bench's pointer-group profile over input p by cache-
// hierarchy simulation, the paper's profiling pass. The profile is a cached
// job: a warm store serves it without simulating.
func (s *Scheduler) Profile(bench string, p workload.Params) (*profiling.Profile, error) {
	return s.profile(bench, p, simProfiler)
}

// ProfileInforming is Profile through the informing-loads implementation.
func (s *Scheduler) ProfileInforming(bench string, p workload.Params) (*profiling.Profile, error) {
	return s.profile(bench, p, informingProfiler)
}

func (s *Scheduler) profile(bench string, p workload.Params, pr profiler) (*profiling.Profile, error) {
	if _, err := workload.Get(bench); err != nil {
		return nil, s.rejectSpec("profile", []string{bench}, pr.spec.Name, err)
	}
	return runJob(s, "profile", []string{bench}, 1, p, pr.spec, func() (profiling.Profile, error) {
		tr, err := workload.BuildShared(bench, p)
		if err != nil {
			return profiling.Profile{}, err
		}
		return *pr.collect(tr, memsys.DefaultConfig(), cpu.DefaultConfig()), nil
	})
}
