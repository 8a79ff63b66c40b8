package trace

import (
	"testing"

	"ldsprefetch/internal/mem"
)

func TestBuilderEmitsAndReads(t *testing.T) {
	m := mem.New()
	m.Write32(mem.HeapBase, 0x1234)
	b := NewBuilder("t", m, 0)
	v, idx := b.Load(100, mem.HeapBase, NoDep, false)
	if v != 0x1234 {
		t.Fatalf("functional load = %#x, want 0x1234", v)
	}
	if idx != 0 {
		t.Fatalf("op index = %d, want 0", idx)
	}
	tr := b.Trace()
	if len(tr.Ops) != 1 || tr.Ops[0].Kind != Load || tr.Ops[0].PC != 100 {
		t.Fatalf("unexpected ops: %+v", tr.Ops)
	}
}

func TestBuilderStoreAppliesImmediately(t *testing.T) {
	m := mem.New()
	b := NewBuilder("t", m, 0)
	b.Store(200, mem.HeapBase+8, 0xabcd, NoDep)
	v, _ := b.Load(201, mem.HeapBase+8, NoDep, false)
	if v != 0xabcd {
		t.Fatalf("load after store = %#x, want 0xabcd", v)
	}
}

func TestBuilderPadding(t *testing.T) {
	b := NewBuilder("t", mem.New(), 3)
	b.Load(1, mem.HeapBase, NoDep, false)
	b.Store(2, mem.HeapBase, 7, NoDep)
	s := summarize(b.Trace())
	// Each pad is one batched compute op carrying 3 instructions.
	if s.Loads != 1 || s.Stores != 1 || s.Computes != 2 || s.Instructions != 8 {
		t.Fatalf("stats = %+v, want 1 load, 1 store, 2 compute batches, 8 instructions", s)
	}
}

func TestComputeBatching(t *testing.T) {
	b := NewBuilder("t", mem.New(), 0)
	b.Compute(100)
	s := summarize(b.Trace())
	wantOps := (100 + MaxBatch - 1) / MaxBatch
	if s.Computes != wantOps || s.Instructions != 100 {
		t.Fatalf("stats = %+v, want %d batch ops, 100 instructions", s, wantOps)
	}
	for i := range b.Trace().Ops {
		if n := b.Trace().Ops[i].Instructions(); n < 1 || n > MaxBatch {
			t.Fatalf("op %d carries %d instructions", i, n)
		}
	}
}

func TestDependenceChain(t *testing.T) {
	m := mem.New()
	// Build a two-node list: node0.next = node1.
	n0, n1 := mem.HeapBase, mem.HeapBase+64
	m.Write32(n0, n1)
	b := NewBuilder("t", m, 0)
	ptr, dep := b.Load(1, n0, NoDep, false)
	_, _ = b.Load(2, ptr, dep, true)
	tr := b.Trace()
	if err := Validate(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Ops[1].Dep != 0 {
		t.Fatalf("second load dep = %d, want 0", tr.Ops[1].Dep)
	}
	if tr.Ops[1].Addr != n1 {
		t.Fatalf("second load addr = %#x, want %#x", tr.Ops[1].Addr, n1)
	}
	if !tr.Ops[1].LDS {
		t.Fatal("second load should be LDS-tagged")
	}
}

func TestValidateRejectsForwardDep(t *testing.T) {
	tr := &Trace{Name: "bad", Mem: mem.New(), Ops: []Op{
		{Kind: Load, Addr: 1, PC: 1, Dep: 1},
		{Kind: Load, Addr: 2, PC: 2, Dep: NoDep},
	}}
	if err := Validate(tr); err == nil {
		t.Fatal("expected error for forward dependence")
	}
}

func TestValidateRejectsDepOnStore(t *testing.T) {
	tr := &Trace{Name: "bad", Mem: mem.New(), Ops: []Op{
		{Kind: Store, Addr: 1, PC: 1, Dep: NoDep},
		{Kind: Load, Addr: 2, PC: 2, Dep: 0},
	}}
	if err := Validate(tr); err == nil {
		t.Fatal("expected error for dependence on store")
	}
}

func TestValidateRejectsZeroPC(t *testing.T) {
	tr := &Trace{Name: "bad", Mem: mem.New(), Ops: []Op{
		{Kind: Load, Addr: 1, PC: 0, Dep: NoDep},
	}}
	if err := Validate(tr); err == nil {
		t.Fatal("expected error for zero PC")
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Load.String() != "load" || Store.String() != "store" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("unknown kind = %q", Kind(9).String())
	}
}

// TestBuilderAcrossChunks emits more than two chunks of ops and checks that
// indices stay global and contiguous across every chunk boundary, that a
// dependence pointing back across a boundary resolves to its producer, and
// that the finished trace is exact-size and stable across Trace calls.
func TestBuilderAcrossChunks(t *testing.T) {
	b := NewBuilder("t", mem.New(), 0)
	const n = 2*chunkOps + 100
	var prev int32 = -1
	for i := 0; i < n; i++ {
		var idx int32
		if i%2 == 0 {
			_, idx = b.Load(uint32(i+1), mem.HeapBase+uint32(4*i), NoDep, false)
		} else {
			idx = b.Store(uint32(i+1), mem.HeapBase+uint32(4*i), uint32(i), NoDep)
		}
		if idx != prev+1 {
			t.Fatalf("op %d got index %d, want %d", i, idx, prev+1)
		}
		prev = idx
	}
	// A load whose producer sits two chunks back.
	far := int32(chunkOps - 2) // even: a Load
	_, dep := b.Load(0xfeed, mem.HeapBase, far, true)
	if b.Len() != n+1 {
		t.Fatalf("Len() = %d, want %d", b.Len(), n+1)
	}
	tr := b.Trace()
	if len(tr.Ops) != n+1 || cap(tr.Ops) != len(tr.Ops) {
		t.Fatalf("len %d cap %d, want len = cap = %d", len(tr.Ops), cap(tr.Ops), n+1)
	}
	for i := 0; i < n; i++ {
		if tr.Ops[i].PC != uint32(i+1) {
			t.Fatalf("op %d has PC %d, want %d", i, tr.Ops[i].PC, i+1)
		}
	}
	if p := tr.Ops[tr.Ops[dep].Dep]; p.Kind != Load || p.PC != uint32(far+1) {
		t.Fatalf("dependence resolves to %+v, want the load at index %d", p, far)
	}
	if err := Validate(tr); err != nil {
		t.Fatal(err)
	}
	if again := b.Trace(); again != tr || len(again.Ops) != n+1 {
		t.Fatal("second Trace call returned a different trace")
	}
}

// summarize counts every op of t into one Stats.
func summarize(t *Trace) Stats {
	var s Stats
	for i := range t.Ops {
		s.Add(&t.Ops[i])
	}
	return s
}
