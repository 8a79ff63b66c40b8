package dbp

import (
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

type sink struct{ reqs []prefetch.Request }

func (s *sink) Issue(r prefetch.Request) { s.reqs = append(s.reqs, r) }

// load stores value at addr in m, as the workload's memory image would hold
// it, and returns the demand load of addr that DBP observes.
func load(m *mem.Memory, pc, addr, value uint32) memsys.AccessEvent {
	m.Write32(addr, value)
	return memsys.AccessEvent{PC: pc, Addr: addr, IsLoad: true}
}

func TestLearnsProducerConsumer(t *testing.T) {
	s := &sink{}
	m := mem.New()
	p := New(128, 256, m, s)
	// Producer (pc 10) loads a pointer; consumer (pc 20) dereferences it
	// at offset 8. After one observation, the next producer load triggers
	// a prefetch of value+8.
	p.OnAccess(load(m, 10, 0x1000_0000, 0x1000_4000))
	p.OnAccess(load(m, 20, 0x1000_4008, 7)) // addr = producer value + 8
	p.OnAccess(load(m, 10, 0x1000_0100, 0x1000_8000))
	if len(s.reqs) != 1 {
		t.Fatalf("issued %d prefetches, want 1", len(s.reqs))
	}
	if s.reqs[0].Addr != 0x1000_8008 {
		t.Fatalf("prefetch %#x, want producer value + learned offset 0x10008008", s.reqs[0].Addr)
	}
	if s.reqs[0].Src != prefetch.SrcDBP {
		t.Fatalf("source = %v", s.reqs[0].Src)
	}
}

func TestOffsetWindowBound(t *testing.T) {
	s := &sink{}
	m := mem.New()
	p := New(128, 256, m, s)
	p.OnAccess(load(m, 10, 0x1000_0000, 0x1000_4000))
	p.OnAccess(load(m, 20, 0x1000_4000+2000, 7)) // offset too large: no correlation
	p.OnAccess(load(m, 10, 0x1000_0100, 0x1000_8000))
	if len(s.reqs) != 0 {
		t.Fatalf("out-of-window offset learned anyway: %+v", s.reqs)
	}
}

func TestStoresIgnored(t *testing.T) {
	s := &sink{}
	m := mem.New()
	p := New(128, 256, m, s)
	ev := load(m, 10, 0x1000_0000, 0x1000_4000)
	ev.IsLoad = false
	p.OnAccess(ev)
	p.OnAccess(load(m, 20, 0x1000_4008, 7))
	p.OnAccess(load(m, 10, 0x1000_0100, 0x1000_8000))
	if len(s.reqs) != 0 {
		t.Fatal("store must not act as a producer")
	}
}

func TestZeroValuesNotProducers(t *testing.T) {
	s := &sink{}
	m := mem.New()
	p := New(128, 256, m, s)
	p.OnAccess(load(m, 10, 0x1000_0000, 0))
	p.OnAccess(load(m, 20, 0x0000_0008, 7))
	if len(s.reqs) != 0 {
		t.Fatal("zero values must not correlate")
	}
}

func TestTableCapacity(t *testing.T) {
	s := &sink{}
	m := mem.New()
	p := New(128, 4, m, s)
	// Learn 8 distinct producers; table capacity 4 → oldest evicted, no
	// panic, newest still prefetch.
	for i := uint32(0); i < 8; i++ {
		pc := 100 + i
		p.OnAccess(load(m, pc, 0x1000_0000+i*0x1000, 0x1200_0000+i*0x1000))
		p.OnAccess(load(m, 200+i, 0x1200_0000+i*0x1000+4, 7))
	}
	before := len(s.reqs)
	p.OnAccess(load(m, 107, 0x1000_9000, 0x1300_0000))
	if len(s.reqs) != before+1 {
		t.Fatalf("recent producer lost after eviction: %d -> %d", before, len(s.reqs))
	}
}

func TestChainedWalkPrefetchesOneAhead(t *testing.T) {
	// A linked-list walk: the same PC is both producer and consumer.
	// DBP learns pc->pc with offset 0 and then runs one node ahead.
	s := &sink{}
	m := mem.New()
	p := New(128, 256, m, s)
	nodes := []uint32{0x1000_0000, 0x1000_4000, 0x1000_8000, 0x1000_c000}
	for i := 0; i < len(nodes)-1; i++ {
		p.OnAccess(load(m, 10, nodes[i], nodes[i+1]))
	}
	// After the self-correlation is learned, each load prefetches its
	// value (the next node).
	if len(s.reqs) == 0 {
		t.Fatal("chained walk produced no prefetches")
	}
	last := s.reqs[len(s.reqs)-1]
	if last.Addr != nodes[3] {
		t.Fatalf("last prefetch %#x, want next node %#x", last.Addr, nodes[3])
	}
}

// TestL1HitProducerTrains attaches DBP to a memory system and makes the
// producer load hit the L1 every time: the memory system must still deliver
// it, so the producer→consumer correlation is learned and the producer's
// next L1 hit prefetches its value plus the learned offset.
func TestL1HitProducerTrains(t *testing.T) {
	m := mem.New()
	ms := memsys.New(memsys.DefaultConfig(), m, dram.NewController(dram.DefaultConfig(1)))
	p := New(128, 256, m, ms)
	ms.Attach(p)
	const producer, node = 0x1000_0000, 0x1000_4000
	m.Write32(producer, node)
	ms.Access(producer+4, 5, true, false, 0) // brings the producer's block into the L1
	ms.Access(producer, 10, true, false, 1000)
	ms.Access(node+8, 20, true, false, 1010) // consumer: producer's value + 8
	m.Write32(producer, 0x1000_8000)
	ms.Access(producer, 10, true, false, 2000)
	if st := ms.Stats(); st.L1Hits != 2 {
		t.Fatalf("%d L1 hits, want the producer's 2", st.L1Hits)
	}
	if got := ms.Feedback().Sources[prefetch.SrcDBP].Issued.Raw(); got != 1 {
		t.Fatalf("DBP issued %v prefetches, want 1 (the producer's value + 8)", got)
	}
}

func TestIdentity(t *testing.T) {
	p := New(0, 0, mem.New(), &sink{})
	if p.Name() != "dbp" || p.Source() != prefetch.SrcDBP {
		t.Fatal("identity mismatch")
	}
	p.SetLevel(prefetch.Moderate)
	if p.Level() != prefetch.Moderate {
		t.Fatal("level not stored")
	}
}
