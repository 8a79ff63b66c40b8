package jobs

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/profiling"
)

// TestProfileCached: a cold profile job is computed and stored; a fresh
// scheduler on the same store serves it as a hit whose hint table equals the
// freshly collected one.
func TestProfileCached(t *testing.T) {
	st := newStore(t)
	s1 := New(Config{Workers: 1, Store: st})
	fresh, err := s1.Profile("mst", testParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.PGs) == 0 {
		t.Fatal("profile observed no pointer groups")
	}
	recs := s1.Records()
	if len(recs) != 1 || recs[0].Kind != "profile" || recs[0].Provenance != "computed" || recs[0].Key == "" {
		t.Fatalf("cold records = %+v, want one computed profile with a key", recs)
	}
	k, err := profileKey("mst", testParams, simProfiler)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Key != k.Hash {
		t.Fatalf("profile recorded key %s, want %s", recs[0].Key, k.Hash)
	}

	s2 := New(Config{Workers: 1, Store: st})
	warm, err := s2.Profile("mst", testParams)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Metrics().Snapshot(); got.CacheHits != 1 || got.Computed != 0 || got.Uncached != 0 {
		t.Fatalf("warm run: %+v, want one hit and no execution", got)
	}
	if !reflect.DeepEqual(warm, fresh) {
		t.Fatal("stored profile does not round-trip")
	}
	if !reflect.DeepEqual(warm.Hints(0), fresh.Hints(0)) {
		t.Fatal("hint table from the stored profile differs from the fresh one")
	}
}

// TestProfileVerify: verify mode recomputes a profile hit, and a stored
// profile that disagrees with a fresh pass fails the job.
func TestProfileVerify(t *testing.T) {
	st := newStore(t)
	if _, err := New(Config{Workers: 1, Store: st}).ProfileInforming("mst", testParams); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st, Verify: true})
	if _, err := s.ProfileInforming("mst", testParams); err != nil {
		t.Fatalf("verifying an honest profile hit: %v", err)
	}
	if got := s.Metrics().Snapshot(); got.CacheHits != 1 || got.VerifyRuns != 1 || got.VerifyBad != 0 {
		t.Fatalf("honest hit: %+v, want one verified hit", got)
	}

	k, err := profileKey("mst", testParams, informingProfiler)
	if err != nil {
		t.Fatal(err)
	}
	tampered := &profiling.Profile{PGs: map[prefetch.PGKey]profiling.PGStats{
		prefetch.MakePGKey(0x40, 1): {Useful: 1},
	}}
	if err := st.Put(k, "profile", tampered); err != nil {
		t.Fatal(err)
	}
	s = New(Config{Workers: 1, Store: st, Verify: true})
	if _, err := s.ProfileInforming("mst", testParams); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("tampered profile passed verification: %v", err)
	}
	if got := s.Metrics().Snapshot(); got.VerifyBad != 1 || got.Failed != 1 {
		t.Fatalf("tampered hit: %+v, want one failed verification", got)
	}
}

// TestProfileUnknownBenchmark: an unknown benchmark fails at once, recorded
// as a failed profile job, without waiting for a worker slot.
func TestProfileUnknownBenchmark(t *testing.T) {
	slots := make(chan struct{}, 1)
	slots <- struct{}{} // the only slot is taken
	s := New(Config{Slots: slots, Store: newStore(t)})
	done := make(chan error, 1)
	go func() {
		_, err := s.Profile("no-such-bench", testParams)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unknown benchmark profiled without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unknown benchmark waited for a worker slot")
	}
	recs := s.Records()
	if len(recs) != 1 || recs[0].Kind != "profile" || recs[0].Provenance != "failed" {
		t.Fatalf("records = %+v, want one failed profile", recs)
	}
	if got := s.Metrics().Snapshot(); got.Failed != 1 || got.CacheMisses != 0 {
		t.Fatalf("metrics = %+v, want one failure and no cache traffic", got)
	}
}
