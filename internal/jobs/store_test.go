package jobs

import (
	"bufio"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
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
