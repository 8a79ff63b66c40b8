package jobs

import (
	"encoding/json"
	"errors"
	"io/fs"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ldsprefetch/internal/sim"
)

// --- Backend seam ---

// memBackend is an in-memory jobs.Backend: the S3-shaped seam exercised
// without a filesystem.
type memBackend struct {
	mu      sync.Mutex
	objects map[string][]byte
	journal []string
}

func newMemBackend() *memBackend { return &memBackend{objects: map[string][]byte{}} }

func (m *memBackend) ReadObject(hash string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.objects[hash]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return b, nil
}

func (m *memBackend) WriteObject(hash string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objects[hash] = append([]byte(nil), data...)
	return nil
}

func (m *memBackend) AppendJournal(line []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.journal = append(m.journal, string(line))
	return nil
}

func TestMemBackendStoreRoundTrip(t *testing.T) {
	mb := newMemBackend()
	st := NewStore(mb)
	s1 := New(Config{Workers: 1, Store: st})
	var ran atomic.Int64
	if _, err := runFake(s1, "mem", 5, &ran); err != nil {
		t.Fatal(err)
	}
	// A second scheduler over the same backend must hit, not recompute.
	s2 := New(Config{Workers: 1, Store: st})
	r, err := runFake(s2, "mem", 0, &ran)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 5 {
		t.Fatalf("cache returned N=%d, want the originally computed 5", r.N)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1 (second run must hit the backend)", got)
	}
	mb.mu.Lock()
	nobj, njournal := len(mb.objects), len(mb.journal)
	mb.mu.Unlock()
	if nobj != 1 {
		t.Fatalf("backend holds %d objects, want 1", nobj)
	}
	if njournal != 2 {
		t.Fatalf("backend journal has %d lines, want 2 (every completion is journaled, hits included)", njournal)
	}
}

func TestBackendMissWrapsNotExist(t *testing.T) {
	st := NewStore(newMemBackend())
	if ok, err := st.Get(fakeKey("missing"), "single", new(fakeResult)); err != nil || ok {
		t.Fatalf("Get on empty backend: ok=%v err=%v, want miss with nil error", ok, err)
	}
}

// --- transportable tasks ---

func TestExecTaskMatchesSingleSpec(t *testing.T) {
	sp := testSpec()
	local := New(Config{Workers: 2})
	want, err := local.SingleSpec("mst", testParams, sp)
	if err != nil {
		t.Fatal(err)
	}

	remote := New(Config{Workers: 2})
	key, _, _, err := (TaskSpec{Kind: "single", Benches: []string{"mst"},
		Scale: testParams.Scale, Seed: testParams.Seed, Spec: sp}).plan()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := remote.ExecTask(TaskSpec{
		Kind: "single", Benches: []string{"mst"},
		Scale: testParams.Scale, Seed: testParams.Seed,
		Spec: sp, Key: key.Hash,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Result
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExecTask result differs from SingleSpec:\n got %+v\nwant %+v", got, want)
	}
}

func TestExecTaskRefusesKeyMismatch(t *testing.T) {
	s := New(Config{Workers: 1})
	_, err := s.ExecTask(TaskSpec{
		Kind: "single", Benches: []string{"mst"},
		Scale: testParams.Scale, Seed: testParams.Seed,
		Spec: testSpec(),
		Key:  strings.Repeat("0", 64),
	})
	if err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("mismatched key not refused: %v", err)
	}
}

func TestExecTaskRejectsBadShape(t *testing.T) {
	s := New(Config{Workers: 1})
	cases := []TaskSpec{
		{Kind: "nonsense", Benches: []string{"mst"}, Scale: 0.05, Seed: 7, Spec: testSpec()},
		{Kind: "single", Benches: []string{"mst", "health"}, Scale: 0.05, Seed: 7, Spec: testSpec()},
		{Kind: "alone", Benches: []string{"mst"}, Cores: 0, Scale: 0.05, Seed: 7, Spec: testSpec()},
		{Kind: "shared", Benches: nil, Scale: 0.05, Seed: 7, Spec: testSpec()},
	}
	for _, tc := range cases {
		if _, err := s.ExecTask(tc); err == nil {
			t.Fatalf("malformed task %+v accepted", tc)
		}
	}
}

// chanRunner hands every dispatched task to a backing scheduler — the
// distributed loop collapsed to a function call, which is exactly what the
// coordinator/worker pair does over HTTP.
type chanRunner struct {
	backing *Scheduler
	tasks   []TaskSpec
	mu      sync.Mutex
}

func (r *chanRunner) RunTask(t TaskSpec) (json.RawMessage, error) {
	r.mu.Lock()
	r.tasks = append(r.tasks, t)
	r.mu.Unlock()
	return r.backing.ExecTask(t)
}

// TestRunnerDispatchMatchesLocal runs one single-core cell and one mix on a
// scheduler with a Runner: every untraced result job is dispatched as a
// TaskSpec carrying its key, and the results deep-equal a local run's.
func TestRunnerDispatchMatchesLocal(t *testing.T) {
	sp := testSpec()
	mix := []string{"mst", "health"}
	local := New(Config{Workers: 2})
	want, err := local.SingleSpec("mst", testParams, sp)
	if err != nil {
		t.Fatal(err)
	}
	wantMix, err := local.MultiSpec(mix, testParams, sp)
	if err != nil {
		t.Fatal(err)
	}

	r := &chanRunner{backing: New(Config{Workers: 2})}
	coord := New(Config{Workers: 2, Runner: r})
	got, err := coord.SingleSpec("mst", testParams, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatched result differs from local:\n got %+v\nwant %+v", got, want)
	}
	gotMix, err := coord.MultiSpec(mix, testParams, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMix, wantMix) {
		t.Fatalf("dispatched mix differs from local:\n got %+v\nwant %+v", gotMix, wantMix)
	}
	// One single cell, then the mix's shared run and one alone run per core.
	if want := 1 + len(mix) + 1; len(r.tasks) != want {
		t.Fatalf("runner saw %d tasks, want %d", len(r.tasks), want)
	}
	for _, task := range r.tasks {
		if task.Key == "" {
			t.Fatalf("dispatched %s task carries no key hash (version-skew guard missing)", task.Kind)
		}
	}
	if got, want := coord.Metrics().Snapshot().Dispatched, int64(len(r.tasks)); got != want {
		t.Fatalf("Dispatched counter = %d, want %d", got, want)
	}

	// A traced run is uncacheable, so it runs locally and never reaches the
	// Runner.
	traced := sp
	traced.Trace = true
	before := len(r.tasks)
	res, err := coord.SingleSpec("mst", testParams, traced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced run returned no telemetry")
	}
	if len(r.tasks) != before {
		t.Fatalf("traced run dispatched %d tasks, want 0", len(r.tasks)-before)
	}
	if got := coord.Metrics().Snapshot().Uncached; got != 1 {
		t.Fatalf("traced run: uncached=%d, want 1 (a local run)", got)
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

type failRunner struct{}

func (failRunner) RunTask(TaskSpec) (json.RawMessage, error) {
	return nil, errors.New("remote boom")
}

func TestRunnerErrorFailsJobWithoutRetry(t *testing.T) {
	coord := New(Config{Workers: 1, Retries: 3, Runner: failRunner{}})
	_, err := coord.SingleSpec("mst", testParams, testSpec())
	if err == nil || !strings.Contains(err.Error(), "remote boom") {
		t.Fatalf("remote error not surfaced: %v", err)
	}
	snap := coord.Metrics().Snapshot()
	if snap.Retries != 0 {
		t.Fatalf("remote failure was retried locally %d times; lease expiry owns re-dispatch", snap.Retries)
	}
}
