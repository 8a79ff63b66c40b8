package exp

import (
	"strings"
	"sync"
	"testing"

	"ldsprefetch/internal/workload"
)

// testCtx returns a context at a tiny scale so experiment plumbing can be
// exercised quickly. Shape assertions on full-scale results live in the
// repository-level integration tests.
func testCtx() *Context {
	c := NewContext()
	c.Params = workload.Params{Scale: 0.08, Seed: 5}
	c.TrainParams = workload.Params{Scale: 0.05, Seed: 1009}
	return c
}

func TestGridCachesResults(t *testing.T) {
	c := testCtx()
	g1 := c.Grid("mst", Base, ECDPT, Prof)
	g2 := c.Grid("mst", Base, ECDPT, Prof)
	if g1 != g2 {
		t.Fatal("grid not cached")
	}
	if g1.Base.IPC <= 0 || g1.ECDPT.IPC <= 0 {
		t.Fatalf("grid results empty: %+v", g1.Base)
	}
	if g1.Hints == nil || g1.Prof == nil {
		t.Fatal("grid missing profile")
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		ID: "x", Title: "t",
		Header: []string{"bench", "v"},
		Rows:   [][]string{{"a", "1.0"}, {"longname", "2.0"}},
		Notes:  []string{"n"},
	}
	s := r.String()
	for _, want := range []string{"=== x: t ===", "bench", "longname", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(testCtx(), "nosuch"); err == nil {
		t.Fatal("expected error")
	}
}

func TestIDsMatchRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatalf("ids = %d, registry = %d", len(ids), len(Registry))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"fig1", "fig7", "fig11", "fig14", "table7", "ablate"} {
		if !seen[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestTable7Static(t *testing.T) {
	r := Table7(testCtx())
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !strings.Contains(r.Rows[3][1], "17296") {
		t.Fatalf("total row = %v, want the paper's 17296 bits", r.Rows[3])
	}
}

func TestSmallExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment plumbing test is slow")
	}
	c := testCtx()
	// Restrict to a pair of benchmarks by running the cheap experiments
	// that share the grid.
	for _, f := range []func(*Context) Report{Fig1, Fig2Table1, Fig4, Fig7Table6, Fig8, Fig9, Fig10} {
		r := f(c)
		if len(r.Rows) < len(pointerBenches()) {
			t.Fatalf("%s: rows = %d, want at least one per benchmark", r.ID, len(r.Rows))
		}
		if len(r.Header) == 0 || r.ID == "" {
			t.Fatalf("malformed report %+v", r.ID)
		}
		for _, row := range r.Rows {
			if len(row) > len(r.Header) {
				t.Fatalf("%s: row wider than header: %v", r.ID, row)
			}
		}
	}
}

func TestMixLabel(t *testing.T) {
	if mixLabel([]string{"a", "b"}) != "a+b" {
		t.Fatal("mixLabel mismatch")
	}
}

func TestWorkloadMixesExist(t *testing.T) {
	for _, mix := range append(append([][]string{}, TwoCoreWorkloads...), FourCoreWorkloads...) {
		for _, b := range mix {
			if _, err := workload.Get(b); err != nil {
				t.Fatalf("mix references unknown benchmark %q", b)
			}
		}
	}
	if len(TwoCoreWorkloads) != 12 {
		t.Fatalf("two-core mixes = %d, want the paper's 12", len(TwoCoreWorkloads))
	}
	if len(FourCoreWorkloads) != 4 {
		t.Fatalf("four-core mixes = %d, want the paper's 4", len(FourCoreWorkloads))
	}
}

// TestGridConcurrentCallersShareOneGrid holds Grid to computing each
// benchmark's profile and each requested cell once, however many goroutines
// ask for it at the same time (mixes that share a benchmark do exactly
// this). The callers ask for overlapping cell sets: every cell in their union
// runs as one job, and CDPT, which nobody asks for, never runs.
func TestGridConcurrentCallersShareOneGrid(t *testing.T) {
	c := NewContext()
	c.Params = workload.Params{Scale: 0.02, Seed: 5}
	c.TrainParams = workload.Params{Scale: 0.02, Seed: 1009}
	benches := []string{"mst", "health"}
	cellSets := [][]Cell{{Base, ECDPT}, {Base, CDP}, {ECDP, Prof}, {NoPF, Base, Ideal}}
	const callers = 8
	got := make([][]*Grid, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		got[i] = make([]*Grid, callers)
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i][k] = c.Grid(b, cellSets[k%len(cellSets)]...)
			}()
		}
	}
	wg.Wait()
	for i, b := range benches {
		for k, g := range got[i] {
			if g != got[i][0] {
				t.Fatalf("%s: caller %d got a different grid", b, k)
			}
		}
	}
	profiles := map[string]int{}
	singles := map[string]map[string]int{}
	for _, rec := range c.Jobs().Records() {
		b := strings.Join(rec.Benchmarks, "+")
		switch rec.Kind {
		case "profile":
			profiles[b]++
		case "single":
			if singles[b] == nil {
				singles[b] = map[string]int{}
			}
			singles[b][rec.Setup]++
		}
	}
	for _, b := range benches {
		if profiles[b] != 1 {
			t.Errorf("%s profiled %d times, want exactly once", b, profiles[b])
		}
		for _, cell := range []Cell{NoPF, Base, CDP, ECDP, ECDPT, Ideal} {
			if n := singles[b][gridSpecs[cell].Name]; n != 1 {
				t.Errorf("%s: cell %s ran %d times, want exactly once", b, gridSpecs[cell].Name, n)
			}
		}
		if len(singles[b]) != 6 {
			t.Errorf("%s ran cells %v, want only the six requested", b, singles[b])
		}
	}
	if len(profiles) != len(benches) {
		t.Errorf("profile records %v, want one per benchmark", profiles)
	}
}

func TestHintsForMergesDisjointPCs(t *testing.T) {
	c := testCtx()
	merged := c.Hints([]string{"mst", "health"})
	a := c.Grid("mst", Prof).Hints
	b := c.Grid("health", Prof).Hints
	if merged.Len() != a.Len()+b.Len() {
		t.Fatalf("merged %d != %d + %d (PC ranges must be disjoint)",
			merged.Len(), a.Len(), b.Len())
	}
}

func TestGmeanAmean(t *testing.T) {
	if g := gmean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("gmean = %v", g)
	}
	if gmean(nil) != 0 {
		t.Fatal("gmean of empty must be 0")
	}
	if amean([]float64{1, 3}) != 2 {
		t.Fatal("amean mismatch")
	}
	if amean(nil) != 0 {
		t.Fatal("amean of empty must be 0")
	}
}

func TestSafeDiv(t *testing.T) {
	if safeDiv(1, 2) != 0.5 || safeDiv(0, 0) != 1 || safeDiv(3, 0) != 0 {
		t.Fatal("safeDiv mismatch")
	}
}
