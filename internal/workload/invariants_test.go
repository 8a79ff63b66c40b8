package workload

import (
	"testing"

	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/trace"
)

// Structural invariants of individual benchmark proxies: the linked data
// structures they build must have the connectivity the paper's analysis
// depends on.

// followChain walks next pointers at the given field offset, bounded by max.
func followChain(m *mem.Memory, head uint32, off uint32, max int) int {
	n := 0
	for head != 0 && n < max {
		n++
		head = m.Read32(addU32(head, off))
	}
	return n
}

func TestMSTChainsTerminate(t *testing.T) {
	g, _ := Get("mst")
	tr := g.Build(Test())
	// Every LDS load in the trace dereferences a heap address; chains from
	// traced bucket loads must terminate within the node count.
	var s trace.Stats
	for i := range tr.Ops {
		s.Add(&tr.Ops[i])
	}
	if s.LDSLoads == 0 {
		t.Fatal("no LDS loads")
	}
	// Find a bucket-head load and walk its chain in the initial image.
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Kind == trace.Load && op.PC == 0x5_0100 {
			head := tr.Mem.Read32(op.Addr)
			if head == 0 {
				continue
			}
			if n := followChain(tr.Mem, head, 12, 1<<20); n >= 1<<20 {
				t.Fatal("mst chain does not terminate (cycle?)")
			}
			return
		}
	}
	t.Fatal("no bucket load found")
}

func TestHealthListsTerminate(t *testing.T) {
	g, _ := Get("health")
	tr := g.Build(Test())
	checked := 0
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Kind == trace.Load && op.PC == 0x7_0104 { // patient-list head load
			head := tr.Mem.Read32(op.Addr)
			if head == 0 {
				continue
			}
			if n := followChain(tr.Mem, head, 8, 1<<20); n >= 1<<20 {
				t.Fatal("health patient list does not terminate")
			}
			checked++
			if checked > 20 {
				return
			}
		}
	}
	if checked == 0 {
		t.Fatal("no patient list heads found")
	}
}

func TestAmmpListCoversAllAtoms(t *testing.T) {
	g, _ := Get("ammp")
	tr := g.Build(Test())
	// The first traced op chain starts at atom 0; its next-chain must
	// cover a substantial pool (the whole list).
	var first uint32
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Kind == trace.Load && op.PC == 0x10_010c { // own-coordinate load
			first = op.Addr - 40
			break
		}
	}
	if first == 0 {
		t.Fatal("no atom access found")
	}
	n := followChain(tr.Mem, first, 0, 1<<20)
	if n < 100 {
		t.Fatalf("ammp atom list covers only %d atoms", n)
	}
}

func TestBisortTreePointersWithinHeap(t *testing.T) {
	g, _ := Get("bisort")
	tr := g.Build(Test())
	// Sample traced kid loads: every non-zero child pointer read must lie
	// in the heap region.
	seen := 0
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if op.Kind != trace.Load || (op.PC != 0x6_0104 && op.PC != 0x6_011c) {
			continue
		}
		v := tr.Mem.Read32(op.Addr)
		if v != 0 && v>>24 != 0x10 {
			t.Fatalf("child pointer %#x outside heap", v)
		}
		seen++
		if seen > 500 {
			break
		}
	}
	if seen == 0 {
		t.Fatal("no child loads found")
	}
}

func TestTracesFitConfiguredHeaps(t *testing.T) {
	// Generators must not address beyond their declared heap regions
	// (the allocator would panic; this guards address arithmetic too).
	for _, name := range Names() {
		g, _ := Get(name)
		tr := g.Build(Test())
		for i := range tr.Ops {
			op := &tr.Ops[i]
			if op.Kind == trace.Compute || op.Kind == trace.Branch {
				// Branch Addr is a code target PC, not a data address.
				continue
			}
			if op.Addr < mem.GlobalBase || op.Addr >= mem.StackBase+(1<<20) {
				t.Fatalf("%s: op %d addresses %#x outside simulated regions", name, i, op.Addr)
			}
		}
	}
}

func TestScaledHelpers(t *testing.T) {
	p := Params{Scale: 0.25}
	if got := scaled(100, p); got != 25 {
		t.Fatalf("scaled = %d", got)
	}
	if got := scaledData(100, p); got != 50 { // sqrt(0.25) = 0.5
		t.Fatalf("scaledData = %d", got)
	}
	if scaled(1, Params{Scale: 0.001}) != 1 {
		t.Fatal("scaled floor")
	}
	if scaledData(10, Params{Scale: 0}) != 10 {
		t.Fatal("scaledData zero-scale defaults to 1.0")
	}
}

func TestShuffledAllocRunsPartialSequentiality(t *testing.T) {
	bd := newBuild("t", Params{Seed: 3, Scale: 1}, 1<<22, 0)
	addrs := bd.shuffledAllocRuns(4096, 16, 8)
	// Some logical neighbours must be address-consecutive (runs exist)...
	seq := 0
	for i := 1; i < len(addrs); i++ {
		if addrs[i] == addrs[i-1]+16 {
			seq++
		}
	}
	if seq == 0 {
		t.Fatal("no sequential runs at all")
	}
	// ...but not all (global shuffle exists).
	if seq > len(addrs)*15/16 {
		t.Fatalf("allocation nearly fully sequential: %d/%d", seq, len(addrs))
	}
	// All addresses distinct.
	set := map[uint32]bool{}
	for _, a := range addrs {
		if set[a] {
			t.Fatal("duplicate address")
		}
		set[a] = true
	}
}

func TestSeqAllocConsecutive(t *testing.T) {
	bd := newBuild("t", Params{Seed: 3, Scale: 1}, 1<<20, 0)
	addrs := bd.seqAlloc(16, 32)
	for i := 1; i < len(addrs); i++ {
		if addrs[i] != addrs[i-1]+32 {
			t.Fatalf("seqAlloc gap at %d", i)
		}
	}
}
