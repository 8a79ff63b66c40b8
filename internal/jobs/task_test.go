package jobs

import (
	"bufio"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ldsprefetch/internal/sim"
)

// --- the on-disk store ---

// TestStoreRoundTrip: a second scheduler over the same directory hits, the
// store keeps one object per key, and the journal has one line per
// completion, hits included.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Store: st})
	var ran atomic.Int64
	if _, err := runFake(s1, "disk", 5, &ran); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1, Store: st})
	r, err := runFake(s2, "disk", 0, &ran)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 5 {
		t.Fatalf("cache returned N=%d, want the originally computed 5", r.N)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1 (second run must hit the store)", got)
	}
	objs, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Fatalf("store holds %d objects, want 1: %v", len(objs), objs)
	}
	f, err := os.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		lines++
	}
	if lines != 2 {
		t.Fatalf("journal has %d lines, want 2 (every completion is journaled, hits included)", lines)
	}
}

func TestStoreMissIsNotError(t *testing.T) {
	if ok, err := newStore(t).Get(fakeKey("missing"), "single", new(fakeResult)); err != nil || ok {
		t.Fatalf("Get on empty store: ok=%v err=%v, want miss with nil error", ok, err)
	}
}

// --- task shapes ---

func TestRunTaskRejectsBadShape(t *testing.T) {
	s := New(Config{Workers: 1})
	cases := []TaskSpec{
		{Kind: "nonsense", Benches: []string{"mst"}, Scale: 0.05, Seed: 7, Spec: testSpec()},
		{Kind: "single", Benches: []string{"mst", "health"}, Scale: 0.05, Seed: 7, Spec: testSpec()},
		{Kind: "alone", Benches: []string{"mst"}, Cores: 0, Scale: 0.05, Seed: 7, Spec: testSpec()},
		{Kind: "shared", Benches: nil, Scale: 0.05, Seed: 7, Spec: testSpec()},
	}
	for _, tc := range cases {
		if _, err := s.runTask(tc); err == nil {
			t.Fatalf("malformed task %+v accepted", tc)
		}
	}
	if got := s.Metrics().Snapshot(); got.Failed != int64(len(cases)) || got.Computed != 0 {
		t.Fatalf("failed=%d computed=%d, want %d/0 (rejected before running)", got.Failed, got.Computed, len(cases))
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
