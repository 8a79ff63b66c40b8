package serverload

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
)

// TestFamiliesRegistered verifies the three families register as server-class
// workloads: resolvable through the registry, listed by ServerNames, and
// excluded from both of the paper's benchmark lists.
func TestFamiliesRegistered(t *testing.T) {
	if got := workload.ServerNames(); !equalStrings(got, Families()) {
		t.Fatalf("ServerNames() = %v, want %v", got, Families())
	}
	for _, name := range Families() {
		g, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Server {
			t.Fatalf("%s: Server flag not set", name)
		}
		for _, n := range append(workload.PointerIntensiveNames(), workload.NonPointerIntensiveNames()...) {
			if n == name {
				t.Fatalf("%s leaked into the paper benchmark lists", name)
			}
		}
	}
}

// TestTracesValid builds each family at test scale and checks structural
// invariants plus the pointer-heavy composition the families exist to model.
func TestTracesValid(t *testing.T) {
	for _, name := range Families() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := g.Build(workload.Test())
			if err := trace.Validate(tr); err != nil {
				t.Fatal(err)
			}
			var s trace.Stats
			for i := range tr.Ops {
				s.Add(&tr.Ops[i])
			}
			if s.Ops < 10_000 {
				t.Fatalf("only %d ops at test scale; generator broken?", s.Ops)
			}
			if s.LDSLoads*5 < s.Loads {
				t.Fatalf("server family should be pointer-heavy: %d/%d LDS loads", s.LDSLoads, s.Loads)
			}
			if s.Stores == 0 {
				t.Fatal("no stores (LRU splice / stamps / counters missing)")
			}
		})
	}
}

// TestDeterministic verifies each family builds an op-for-op identical trace
// for identical {family, scale, seed}, and a different one for a different
// seed — the invariant the tracefile digest and result cache both lean on.
func TestDeterministic(t *testing.T) {
	for _, name := range Families() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			a := g.Build(workload.Test())
			b := g.Build(workload.Test())
			if len(a.Ops) != len(b.Ops) {
				t.Fatalf("op counts differ: %d vs %d", len(a.Ops), len(b.Ops))
			}
			for i := range a.Ops {
				if a.Ops[i] != b.Ops[i] {
					t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
				}
			}
			other := workload.Test()
			other.Seed++
			c := g.Build(other)
			if tracesEqual(a, c) {
				t.Fatal("different seeds produced identical traces")
			}
		})
	}
}

func tracesEqual(a, b *trace.Trace) bool {
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return false
		}
	}
	return true
}

// TestZipfianSkew sanity-bounds the request popularity distribution: the hot
// set must dominate (it is a Zipfian stream) but the tail must still be
// touched (it is not a single-key hammer), and ranks must be scattered across
// the id space rather than clustered at low ids.
func TestZipfianSkew(t *testing.T) {
	const nObjs, nReqs = 100_000, 200_000
	bd := &build{rng: rand.New(rand.NewSource(7))}
	ids := bd.zipfIDs(nReqs, nObjs)
	if len(ids) != nReqs {
		t.Fatalf("got %d ids, want %d", len(ids), nReqs)
	}
	freq := make(map[int]int)
	for _, id := range ids {
		if id < 0 || id >= nObjs {
			t.Fatalf("id %d out of range [0,%d)", id, nObjs)
		}
		freq[id]++
	}
	counts := make([]int, 0, len(freq))
	lowIDs := 0
	//ldslint:ordered aggregates order-independent tallies, then sorts
	for id, c := range freq {
		counts = append(counts, c)
		if id < nObjs/100 {
			lowIDs++
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := nObjs / 100 // top 1% of distinct objects
	hot := 0
	for i := 0; i < top && i < len(counts); i++ {
		hot += counts[i]
	}
	if hot*2 < nReqs {
		t.Fatalf("top 1%% of objects got %d/%d requests; stream is not Zipfian-skewed", hot, nReqs)
	}
	if len(freq) < nObjs/10 {
		t.Fatalf("only %d distinct objects touched; tail coverage too thin", len(freq))
	}
	// With ranks scattered by a permutation, ~1% of distinct touched ids
	// should be low ids; 5x that means ranks correlate with allocation order.
	if lowIDs*20 > len(freq) {
		t.Fatalf("%d of %d touched ids in the lowest 1%% of the id space; ranks not scattered", lowIDs, len(freq))
	}
}

// TestHeapBudget covers the checked sizing path: slack is added, and budgets
// past the simulated heap fail loudly instead of wrapping.
func TestHeapBudget(t *testing.T) {
	if got := heapBudget(1000); got != 1250 {
		t.Fatalf("heapBudget(1000) = %d, want 1250 (25%% slack)", got)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for over-budget heap")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "reduce the scale") {
			t.Fatalf("panic %v does not tell the user to reduce the scale", r)
		}
	}()
	heapBudget(uint64(mem.StackBase - mem.HeapBase))
}

// TestExtremeScalePanics verifies -scale extremes fail loudly at the checked
// boundaries (data-dimension overflow or heap exhaustion) before any trace
// construction work happens, always with actionable wording.
func TestExtremeScalePanics(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
	}{
		{"kvstore", 2500}, // passes scaledData, exceeds the simulated heap
		{"kvstore", 1e9},  // overflows the scaled data dimension
		{"btree", 1e9},
		{"graphserve", 1e9},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g, err := workload.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Build at scale %g did not panic", tc.scale)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "reduce the scale") {
					t.Fatalf("panic %v does not tell the user to reduce the scale", r)
				}
			}()
			g.Build(workload.Params{Scale: tc.scale, Seed: 1})
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
