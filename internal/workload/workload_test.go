package workload

import (
	"testing"

	"ldsprefetch/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	pi := PointerIntensiveNames()
	if len(pi) != 15 {
		t.Fatalf("pointer-intensive benchmarks = %d, want the paper's 15: %v", len(pi), pi)
	}
	want := []string{
		"perlbench", "gcc", "mcf", "astar", "xalancbmk", "omnetpp", "parser",
		"art", "ammp", "bisort", "health", "mst", "perimeter", "voronoi", "pfast",
	}
	for i, n := range want {
		if pi[i] != n {
			t.Fatalf("order[%d] = %q, want %q (paper Table 1 order)", i, pi[i], n)
		}
	}
	if got := len(NonPointerIntensiveNames()); got != 4 {
		t.Fatalf("non-pointer-intensive = %d, want 4", got)
	}
	if len(Names()) != 19 {
		t.Fatalf("total benchmarks = %d, want 19", len(Names()))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nosuch"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestAllTracesValid builds every benchmark at test scale and validates
// structural invariants plus basic composition expectations.
func TestAllTracesValid(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := g.Build(Test())
			if err := trace.Validate(tr); err != nil {
				t.Fatal(err)
			}
			var s trace.Stats
			for i := range tr.Ops {
				s.Add(&tr.Ops[i])
			}
			if s.Ops < 1000 {
				t.Fatalf("only %d ops at test scale; generator broken?", s.Ops)
			}
			if s.Loads == 0 {
				t.Fatal("no loads")
			}
			if g.PointerIntensive && s.LDSLoads == 0 {
				t.Fatal("pointer-intensive benchmark emitted no LDS loads")
			}
			if !g.PointerIntensive && s.LDSLoads > s.Loads/10 {
				t.Fatalf("streaming benchmark has %d/%d LDS loads", s.LDSLoads, s.Loads)
			}
		})
	}
}

// TestDeterministic verifies a benchmark builds identically for identical
// params (required for reproducible experiments).
func TestDeterministic(t *testing.T) {
	g, _ := Get("mst")
	a := g.Build(Test())
	b := g.Build(Test())
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
}

// TestTrainDiffersFromRef verifies the profiling input is a genuinely
// different run (the paper's Section 6.1.6 sensitivity study needs this).
func TestTrainDiffersFromRef(t *testing.T) {
	g, _ := Get("mst")
	ref := g.Build(Params{Scale: 0.1, Seed: Ref().Seed})
	train := g.Build(Params{Scale: 0.1, Seed: Train().Seed})
	same := len(ref.Ops) == len(train.Ops)
	if same {
		for i := range ref.Ops {
			if ref.Ops[i] != train.Ops[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("train and ref inputs produced identical traces")
	}
}

// TestBuildSharedMatchesBuild verifies the build cache is invisible: a cached
// clone is op-for-op identical to a fresh build and carries its own memory
// image, so one caller's replay (which re-applies stores) cannot leak into
// the next caller's clone.
func TestBuildSharedMatchesBuild(t *testing.T) {
	g, _ := Get("mst")
	fresh := g.Build(Test())
	a, err := BuildShared("mst", Test())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ops) != len(fresh.Ops) {
		t.Fatalf("op counts differ: shared %d vs fresh %d", len(a.Ops), len(fresh.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != fresh.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], fresh.Ops[i])
		}
	}

	// Corrupt a traced location in clone a; clone b must still see the
	// pre-run image.
	var addr uint32
	for i := range a.Ops {
		if a.Ops[i].Kind != trace.Compute && a.Ops[i].Addr != 0 {
			addr = a.Ops[i].Addr
			break
		}
	}
	if addr == 0 {
		t.Fatal("no memory op in trace")
	}
	want := fresh.Mem.Read32(addr)
	a.Mem.Write32(addr, want+0x5a5a)
	b, err := BuildShared("mst", Test())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Mem.Read32(addr); got != want {
		t.Fatalf("second clone sees %#x at %#x after first clone was mutated, want %#x", got, addr, want)
	}
}

func TestBuildSharedUnknown(t *testing.T) {
	if _, err := BuildShared("nosuch", Test()); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestSizeU32(t *testing.T) {
	if got := sizeU32(16, 4); got != 64 {
		t.Fatalf("sizeU32(16,4) = %d, want 64", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: 2^30 x 8 bytes overflows uint32")
		}
	}()
	sizeU32(1<<30, 8)
}

func TestScaledOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflowing scale")
		}
	}()
	scaled(1<<40, Params{Scale: 1 << 20})
}

func TestScaledDataOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflowing data scale")
		}
	}()
	scaledData(1<<20, Params{Scale: 1e14})
}

// TestPointerFieldsAreHeapAddresses spot-checks that LDS loads dereference
// real heap pointers (the property CDP's compare-bits matcher relies on).
func TestPointerFieldsAreHeapAddresses(t *testing.T) {
	g, _ := Get("health")
	tr := g.Build(Test())
	checked := 0
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Kind == trace.Load && op.LDS && op.Addr != 0 {
			if op.Addr>>24 != 0x10 {
				t.Fatalf("LDS load %d at %#x outside the heap region", i, op.Addr)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no LDS loads checked")
	}
}

// TestTrainFor pins the profiling input that goes with a measurement input:
// Train's seed at Train's fraction of the measurement scale.
func TestTrainFor(t *testing.T) {
	if got := TrainFor(Ref()); got != Train() {
		t.Fatalf("TrainFor(Ref()) = %+v, want Train() %+v", got, Train())
	}
	if got, want := TrainFor(Params{Scale: 0.35, Seed: 3}), (Params{Scale: 0.175, Seed: 1009}); got != want {
		t.Fatalf("TrainFor(0.35, 3) = %+v, want %+v", got, want)
	}
}
