package profiling

import (
	"testing"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/workload"
)

func collect(t *testing.T, bench string) *Profile {
	t.Helper()
	g, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	tr := g.Build(workload.Params{Scale: 0.12, Seed: 5})
	return Collect(tr, memsys.DefaultConfig(), cpu.DefaultConfig())
}

func TestCollectObservesPGs(t *testing.T) {
	p := collect(t, "mst")
	if len(p.PGs) == 0 {
		t.Fatal("no pointer groups observed")
	}
	b, h := p.BeneficialHarmful()
	if b+h == 0 {
		t.Fatal("no classified PGs")
	}
}

func TestMSTNextBeneficialDataHarmful(t *testing.T) {
	// The paper's Figure 5 example: in the hash-lookup loop, the chain
	// next pointer should profile clearly more useful than the data
	// pointers of the same node.
	p := collect(t, "mst")
	const keyPC = 0x5_0104
	next := p.PGs[prefetch.MakePGKey(keyPC, 3)] // next at +12 bytes
	d1 := p.PGs[prefetch.MakePGKey(keyPC, 1)]   // d1 at +4 bytes
	if next.Total() == 0 || d1.Total() == 0 {
		t.Skipf("PGs not exercised at this scale: next=%d d1=%d", next.Total(), d1.Total())
	}
	if next.Usefulness() <= d1.Usefulness() {
		t.Fatalf("next usefulness %.3f <= d1 %.3f; Figure 5 structure lost",
			next.Usefulness(), d1.Usefulness())
	}
}

func TestHintsThreshold(t *testing.T) {
	p := &Profile{PGs: map[prefetch.PGKey]PGStats{
		prefetch.MakePGKey(10, 2): {Useful: 9, Useless: 1},
		prefetch.MakePGKey(10, 3): {Useful: 1, Useless: 9},
		prefetch.MakePGKey(11, 1): {Useful: 6, Useless: 4},
	}}
	h := p.Hints(0)
	v, ok := h.Lookup(10)
	if !ok || !v.Allows(2) || v.Allows(3) {
		t.Fatalf("hints for pc 10 = %v", v)
	}
	if v2, ok := h.Lookup(11); !ok || !v2.Allows(1) {
		t.Fatal("pc 11 must be beneficial at 0.5")
	}
	// Stricter threshold drops the 60%-useful PG.
	h75 := p.Hints(0.75)
	if v2, _ := h75.Lookup(11); v2.Allows(1) {
		t.Fatal("pc 11 must be filtered at 0.75")
	}
}

func TestHintsRecordProfiledButEmptyLoads(t *testing.T) {
	p := &Profile{PGs: map[prefetch.PGKey]PGStats{
		prefetch.MakePGKey(10, 2): {Useful: 0, Useless: 5},
	}}
	h := p.Hints(0)
	v, ok := h.Lookup(10)
	if !ok {
		t.Fatal("profiled load must be present (with an empty vector)")
	}
	if !v.Empty() {
		t.Fatal("all-harmful load must have an empty vector")
	}
}

func TestCoarseHints(t *testing.T) {
	p := &Profile{PGs: map[prefetch.PGKey]PGStats{
		prefetch.MakePGKey(10, 2): {Useful: 9, Useless: 1},
		prefetch.MakePGKey(10, 3): {Useful: 8, Useless: 2},
		prefetch.MakePGKey(11, 1): {Useful: 1, Useless: 9},
		prefetch.MakePGKey(12, 1): {Useful: 5, Useless: 5},
	}}
	h := p.CoarseHints()
	v10, _ := h.Lookup(10)
	// Coarse control: ALL offsets enabled for a majority-useful load.
	for off := -16; off < 16; off++ {
		if !v10.Allows(off) {
			t.Fatalf("coarse hints must enable every offset; %d blocked", off)
		}
	}
	v11, ok := h.Lookup(11)
	if !ok || !v11.Empty() {
		t.Fatal("majority-useless load must be fully disabled")
	}
	if v12, ok := h.Lookup(12); !ok || !v12.Empty() {
		t.Fatal("a load exactly at the threshold must be fully disabled")
	}
}

func TestHistogram(t *testing.T) {
	p := &Profile{PGs: map[prefetch.PGKey]PGStats{
		prefetch.MakePGKey(1, 0): {Useful: 0, Useless: 10}, // 0%
		prefetch.MakePGKey(1, 1): {Useful: 3, Useless: 7},  // 30%
		prefetch.MakePGKey(1, 2): {Useful: 6, Useless: 4},  // 60%
		prefetch.MakePGKey(1, 3): {Useful: 10, Useless: 0}, // 100%
	}}
	h := p.Histogram()
	if h != [4]int{1, 1, 1, 1} {
		t.Fatalf("histogram = %v", h)
	}
}

func TestTopPGsDeterministic(t *testing.T) {
	p := collect(t, "perlbench")
	a := p.TopPGs(10)
	b := p.TopPGs(10)
	if len(a) == 0 {
		t.Fatal("no top PGs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopPGs not deterministic")
		}
	}
	// Ordering by total, descending.
	for i := 1; i < len(a); i++ {
		if p.PGs[a[i]].Total() > p.PGs[a[i-1]].Total() {
			t.Fatal("TopPGs not sorted by activity")
		}
	}
}

func TestPGStatsUsefulness(t *testing.T) {
	if (PGStats{}).Usefulness() != 0 {
		t.Fatal("empty PG usefulness must be 0")
	}
	s := PGStats{Useful: 3, Useless: 1}
	if s.Usefulness() != 0.75 || s.Total() != 4 {
		t.Fatalf("stats = %+v", s)
	}
}
