package jobs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

var testParams = workload.Params{Scale: 0.05, Seed: 7}

func testSpec() sim.Spec { return sim.NewSpec("none") }

// must unwraps a key derivation over a spec that is known to be valid.
func must(k Key, err error) Key {
	if err != nil {
		panic(err)
	}
	return k
}

// --- keys ---

func TestKeyDeterminism(t *testing.T) {
	a := must(SingleSpecKey("mst", testParams, testSpec()))
	b := must(SingleSpecKey("mst", testParams, testSpec()))
	if a.Hash != b.Hash {
		t.Fatalf("identical inputs hashed differently: %s vs %s", a.Hash, b.Hash)
	}
	if len(a.Hash) != 64 {
		t.Fatalf("hash %q is not hex sha256", a.Hash)
	}
}

func TestKeyHintOrderIndependence(t *testing.T) {
	h1 := core.NewHintTable()
	h1.Set(0x10, core.HintVec{Pos: 1})
	h1.Set(0x20, core.HintVec{Neg: 2})
	h2 := core.NewHintTable()
	h2.Set(0x20, core.HintVec{Neg: 2})
	h2.Set(0x10, core.HintVec{Pos: 1})
	s1, s2 := testSpec(), testSpec()
	s1.Hints, s2.Hints = h1, h2
	if must(SingleSpecKey("mst", testParams, s1)).Hash != must(SingleSpecKey("mst", testParams, s2)).Hash {
		t.Fatal("hint insertion order leaked into the key")
	}
}

func TestKeyInvalidation(t *testing.T) {
	base := must(SingleSpecKey("mst", testParams, testSpec()))
	seen := map[string]string{base.Hash: "base"}
	add := func(name string, k Key) {
		t.Helper()
		if prev, dup := seen[k.Hash]; dup {
			t.Fatalf("%s collides with %s: both hash %s", name, prev, k.Hash)
		}
		seen[k.Hash] = name
	}

	s := testSpec().With(sim.NewComponent("stream", nil))
	add("spec component", must(SingleSpecKey("mst", testParams, s)))

	s = testSpec()
	s.Hints = core.NewHintTable()
	s.Hints.Set(0x40, core.HintVec{Pos: 3})
	add("hint table", must(SingleSpecKey("mst", testParams, s)))

	p := testParams
	p.Scale = 0.06
	add("scale", must(SingleSpecKey("mst", p, testSpec())))

	p = testParams
	p.Seed = 8
	add("seed", must(SingleSpecKey("mst", p, testSpec())))

	add("benchmark", must(SingleSpecKey("health", testParams, testSpec())))
	add("kind+cores", must(newKey("alone", []string{"mst"}, 2, testParams, testSpec())))
	add("mix", must(newKey("shared", []string{"mst", "health"}, 2, testParams, testSpec())))
	add("profile", must(newKey("profile", []string{"mst"}, 1, testParams, simProfiler.spec)))
	add("profiler", must(newKey("profile", []string{"mst"}, 1, testParams, informingProfiler.spec)))
	add("profile input", must(newKey("profile", []string{"mst"}, 1, p, simProfiler.spec)))
	add("profile spec as a result", must(SingleSpecKey("mst", testParams, simProfiler.spec)))

	canon, err := testSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	bumped := keyFromPayload(keyPayload{
		Schema:  SchemaVersion + 1,
		Kind:    "single",
		Benches: []string{"mst"},
		Scale:   testParams.Scale,
		Seed:    testParams.Seed,
		Cores:   1,
		Spec:    canon,
	})
	add("schema version", bumped)

	// A component version bump must also change the key: the canonical
	// spec embeds per-component versions.
	withStream, err := testSpec().With(sim.NewComponent("stream", nil)).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(withStream), `"version"`) {
		t.Fatalf("canonical spec carries no component versions: %s", withStream)
	}
}

func TestKeyIgnoresTrace(t *testing.T) {
	s := testSpec()
	s.Trace = true
	if must(SingleSpecKey("mst", testParams, s)).Hash != must(SingleSpecKey("mst", testParams, testSpec())).Hash {
		t.Fatal("Spec.Trace leaked into the key (traced runs bypass the cache; the key must not see the flag)")
	}
}

// --- fake cacheable jobs (drive the generic path without real simulations) ---

type fakeResult struct{ N int }

func fakeKey(name string) Key {
	return keyFromPayload(keyPayload{Schema: SchemaVersion, Kind: "single", Benches: []string{name}})
}

func fakeDesc(name string) jobDesc {
	return jobDesc{kind: "single", benches: []string{name}, setupName: name,
		key: fakeKey(name), cacheable: true}
}

// runUncached runs fn as one uncacheable job on s's generic path: bounded
// concurrency, panic containment and timeout apply as to any job.
func runUncached(s *Scheduler, label string, fn func() (any, error)) (any, error) {
	return s.do(jobDesc{kind: "test", setupName: label}, fn, nil)
}

func runFake(s *Scheduler, name string, n int, ran *atomic.Int64) (*fakeResult, error) {
	v, err := s.do(fakeDesc(name),
		func() (any, error) {
			if ran != nil {
				ran.Add(1)
			}
			return &fakeResult{N: n}, nil
		},
		func() any { return new(fakeResult) })
	if err != nil {
		return nil, err
	}
	return v.(*fakeResult), nil
}

func newStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// --- cache and resume ---

func TestCacheHitSkipsExecution(t *testing.T) {
	st := newStore(t)
	var ran atomic.Int64

	s1 := New(Config{Workers: 2, Store: st})
	r, err := runFake(s1, "a", 41, &ran)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 41 || ran.Load() != 1 {
		t.Fatalf("first pass: got %+v after %d executions", r, ran.Load())
	}

	// A fresh scheduler against the same store must not execute at all.
	s2 := New(Config{Workers: 2, Store: st})
	r, err = runFake(s2, "a", 0, &ran)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 41 {
		t.Fatalf("cached result corrupted: %+v", r)
	}
	if ran.Load() != 1 {
		t.Fatalf("cache hit still executed the job (%d executions)", ran.Load())
	}
	snap := s2.Metrics().Snapshot()
	if snap.CacheHits != 1 || snap.Computed != 0 {
		t.Fatalf("second pass: hits=%d computed=%d, want 1/0", snap.CacheHits, snap.Computed)
	}
	recs := s2.Records()
	if len(recs) != 1 || recs[0].Provenance != "hit" {
		t.Fatalf("records = %+v, want one hit", recs)
	}
}

func TestResumeSkipsJournaledCells(t *testing.T) {
	st := newStore(t)
	cells := []string{"a", "b", "c", "d", "e"}
	var ran atomic.Int64

	// Interrupted sweep: only 2 of the 5 cells completed.
	s1 := New(Config{Workers: 2, Store: st})
	for i, name := range cells[:2] {
		if _, err := runFake(s1, name, i, &ran); err != nil {
			t.Fatal(err)
		}
	}
	if ran.Load() != 2 {
		t.Fatalf("partial sweep executed %d cells, want 2", ran.Load())
	}

	// Resume: the full sweep against the same store executes exactly M-N.
	s2 := New(Config{Workers: 2, Store: st})
	for i, name := range cells {
		r, err := runFake(s2, name, i, &ran)
		if err != nil {
			t.Fatal(err)
		}
		if r.N != i {
			t.Fatalf("cell %s: got %d want %d", name, r.N, i)
		}
	}
	if got := ran.Load() - 2; got != 3 {
		t.Fatalf("resume executed %d cells, want exactly 3", got)
	}
	snap := s2.Metrics().Snapshot()
	if snap.CacheHits != 2 || snap.Computed != 3 {
		t.Fatalf("resume: hits=%d computed=%d, want 2/3", snap.CacheHits, snap.Computed)
	}
}

func TestSchemaBumpInvalidates(t *testing.T) {
	st := newStore(t)
	k := fakeKey("a")
	if err := st.Put(k, "single", &fakeResult{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a schema bump by reading the object back expecting a
	// different kind (same code path as a SchemaVersion mismatch: the
	// envelope check fails and the lookup reads as a miss).
	var out fakeResult
	hit, err := st.Get(k, "shared", &out)
	if err != nil || hit {
		t.Fatalf("kind-mismatched object read as hit=%v err=%v, want miss", hit, err)
	}
	hit, err = st.Get(k, "single", &out)
	if err != nil || !hit || out.N != 1 {
		t.Fatalf("matching lookup: hit=%v err=%v out=%+v", hit, err, out)
	}
}

// --- failure containment ---

func TestPanicContainment(t *testing.T) {
	s := New(Config{Workers: 1})
	_, err := runUncached(s, "boom", func() (any, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "job panicked: kaboom") {
		t.Fatalf("panic not contained as error: %v", err)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic error carries no stack: %v", err)
	}
	if got := s.Metrics().Snapshot(); got.Panics != 1 || got.Failed != 1 {
		t.Fatalf("panics=%d failed=%d, want 1/1", got.Panics, got.Failed)
	}
	// The pool must still work after the panic.
	if _, err := runUncached(s, "ok", func() (any, error) { return 1, nil }); err != nil {
		t.Fatalf("scheduler dead after contained panic: %v", err)
	}
}

// TestFailingJobRunsOnce: a job is a pure function of its key, so a failure
// is final. The job runs exactly once and is recorded failed.
func TestFailingJobRunsOnce(t *testing.T) {
	s := New(Config{Workers: 1})
	var calls atomic.Int64
	_, err := runUncached(s, "hopeless", func() (any, error) {
		calls.Add(1)
		return nil, errors.New("permanent")
	})
	if err == nil || calls.Load() != 1 {
		t.Fatalf("want one failed run, got err=%v calls=%d", err, calls.Load())
	}
	if got := s.Metrics().Snapshot(); got.Failed != 1 || got.Completed != 0 {
		t.Fatalf("failed=%d completed=%d, want 1/0", got.Failed, got.Completed)
	}
	recs := s.Records()
	if len(recs) != 1 || recs[0].Provenance != "failed" || recs[0].Error != "permanent" {
		t.Fatalf("records = %+v, want one failed record carrying the error", recs)
	}
}

func TestTimeout(t *testing.T) {
	s := New(Config{Workers: 1, Timeout: 20 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	_, err := runUncached(s, "stuck", func() (any, error) {
		calls.Add(1)
		<-release
		return nil, nil
	})
	var te timeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want timeoutError, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("timed-out job ran %d times, want once", calls.Load())
	}
	if got := s.Metrics().Snapshot(); got.Timeouts != 1 {
		t.Fatalf("timeouts=%d, want 1", got.Timeouts)
	}
}

// --- in-flight deduplication ---

func TestCoalescing(t *testing.T) {
	st := newStore(t)
	s := New(Config{Workers: 2, Store: st})

	started := make(chan struct{})
	release := make(chan struct{})
	var ran atomic.Int64

	leaderDone := make(chan *fakeResult, 1)
	go func() {
		v, err := s.do(fakeDesc("shared-cell"),
			func() (any, error) {
				ran.Add(1)
				close(started)
				<-release
				return &fakeResult{N: 9}, nil
			},
			func() any { return new(fakeResult) })
		if err != nil {
			t.Error(err)
		}
		leaderDone <- v.(*fakeResult)
	}()
	<-started

	followerDone := make(chan *fakeResult, 1)
	go func() {
		r, err := runFake(s, "shared-cell", 0, &ran)
		if err != nil {
			t.Error(err)
		}
		followerDone <- r
	}()

	// The follower must be parked on the leader, not executing.
	time.Sleep(10 * time.Millisecond)
	close(release)

	l, f := <-leaderDone, <-followerDone
	if ran.Load() != 1 {
		t.Fatalf("identical in-flight jobs executed %d times, want 1", ran.Load())
	}
	if l.N != 9 || f.N != 9 {
		t.Fatalf("leader/follower results diverge: %+v vs %+v", l, f)
	}
	if got := s.Metrics().Snapshot(); got.Coalesced != 1 || got.Computed != 1 {
		t.Fatalf("coalesced=%d computed=%d, want 1/1", got.Coalesced, got.Computed)
	}
}

// --- determinism check ---

func TestVerifyCatchesMismatch(t *testing.T) {
	st := newStore(t)
	// Poison the store: the stored result disagrees with what the job
	// computes.
	if err := st.Put(fakeKey("cell"), "single", &fakeResult{N: 1}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st, Verify: true})
	_, err := runFake(s, "cell", 2, nil)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("verify missed the mismatch: %v", err)
	}
	if got := s.Metrics().Snapshot(); got.VerifyRuns != 1 || got.VerifyBad != 1 {
		t.Fatalf("verifyRuns=%d verifyBad=%d, want 1/1", got.VerifyRuns, got.VerifyBad)
	}
}

func TestVerifyPassesOnMatch(t *testing.T) {
	st := newStore(t)
	if err := st.Put(fakeKey("cell"), "single", &fakeResult{N: 2}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st, Verify: true})
	r, err := runFake(s, "cell", 2, nil)
	if err != nil || r.N != 2 {
		t.Fatalf("matching verify failed: r=%+v err=%v", r, err)
	}
	if got := s.Metrics().Snapshot(); got.VerifyRuns != 1 || got.VerifyBad != 0 {
		t.Fatalf("verifyRuns=%d verifyBad=%d, want 1/0", got.VerifyRuns, got.VerifyBad)
	}
}

// --- real simulations through the scheduler ---

func TestSingleCachedRealRun(t *testing.T) {
	st := newStore(t)
	s1 := New(Config{Workers: 2, Store: st})
	r1, err := s1.SingleSpec("mst", testParams, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Retired == 0 {
		t.Fatal("empty simulation result")
	}
	s2 := New(Config{Workers: 2, Store: st})
	r2, err := s2.SingleSpec("mst", testParams, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", r1) != fmt.Sprintf("%+v", r2) {
		t.Fatalf("cached result differs from computed:\n%+v\nvs\n%+v", r1, r2)
	}
	if got := s2.Metrics().Snapshot(); got.Computed != 0 || got.CacheHits != 1 {
		t.Fatalf("second run: computed=%d hits=%d, want 0/1", got.Computed, got.CacheHits)
	}
}

func TestMultiSharesAloneRuns(t *testing.T) {
	st := newStore(t)
	s := New(Config{Workers: 4, Store: st})
	mixA := []string{"mst", "health"}
	mixB := []string{"health", "mst"}

	ra, err := s.MultiSpec(mixA, testParams, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ra.WeightedSpeedup <= 0 || ra.HmeanSpeedup <= 0 {
		t.Fatalf("normalization missing: %+v", ra)
	}
	// The reversed mix is a different shared run but reuses both alone runs.
	before := s.Metrics().Snapshot()
	rb, err := s.MultiSpec(mixB, testParams, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	after := s.Metrics().Snapshot()
	if hits := after.CacheHits - before.CacheHits; hits != 2 {
		t.Fatalf("alone runs not shared across mixes: %d hits, want 2", hits)
	}
	if computed := after.Computed - before.Computed; computed != 1 {
		t.Fatalf("reversed mix computed %d jobs, want 1 (the shared run)", computed)
	}
	if rb.AloneIPC[0] != ra.AloneIPC[1] || rb.AloneIPC[1] != ra.AloneIPC[0] {
		t.Fatalf("alone IPCs inconsistent across mixes: %v vs %v", ra.AloneIPC, rb.AloneIPC)
	}
}

// TestInvalidMixSpecFailsOnce: an invalid spec fails a mix up front as one
// failed job, not once per shared and alone run.
func TestInvalidMixSpecFailsOnce(t *testing.T) {
	s := New(Config{Workers: 1})
	_, err := s.MultiSpec([]string{"mst", "health"}, testParams, sim.NewSpec("bad", "warp-drive"))
	if err == nil {
		t.Fatal("invalid mix spec accepted")
	}
	if got := s.Metrics().Snapshot(); got.Submitted != 1 || got.Failed != 1 {
		t.Fatalf("submitted=%d failed=%d, want 1/1", got.Submitted, got.Failed)
	}
	recs := s.Records()
	if len(recs) != 1 || recs[0].Provenance != "failed" || recs[0].Kind != "shared" {
		t.Fatalf("records = %+v, want one failed shared job", recs)
	}
}

func TestUncacheableTracedRun(t *testing.T) {
	st := newStore(t)
	s := New(Config{Workers: 1, Store: st})
	sp := testSpec()
	sp.Trace = true
	res, err := s.SingleSpec("mst", testParams, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced run returned no telemetry")
	}
	if got := s.Metrics().Snapshot(); got.Uncached != 1 || got.CacheMisses != 0 || got.Computed != 0 {
		t.Fatalf("traced run touched the cache: %+v", got)
	}
}

// --- shared worker pool ---

func TestSharedSlotsBoundConcurrency(t *testing.T) {
	slots := make(chan struct{}, 1)
	s1 := New(Config{Slots: slots})
	s2 := New(Config{Slots: slots})

	var peak, cur atomic.Int64
	job := func() (any, error) {
		if c := cur.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return nil, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		sch := s1
		if i%2 == 1 {
			sch = s2
		}
		go func(sch *Scheduler, i int) {
			defer wg.Done()
			if _, err := runUncached(sch, fmt.Sprintf("j%d", i), job); err != nil {
				t.Error(err)
			}
		}(sch, i)
	}
	wg.Wait()
	if peak.Load() > 1 {
		t.Fatalf("shared 1-slot pool ran %d jobs concurrently", peak.Load())
	}
	// Sharing the pool does not share statistics.
	for _, sch := range []*Scheduler{s1, s2} {
		if got := sch.Metrics().Snapshot().Completed; got != 2 {
			t.Fatalf("scheduler saw %d completions, want its own 2", got)
		}
	}
}
