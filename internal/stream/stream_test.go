package stream

import (
	"testing"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

type sink struct{ reqs []prefetch.Request }

func (s *sink) Issue(r prefetch.Request) { s.reqs = append(s.reqs, r) }

func miss(addr uint32, now int64) memsys.AccessEvent {
	return memsys.AccessEvent{Now: now, Addr: addr, IsLoad: true}
}

func TestAscendingStreamPrefetches(t *testing.T) {
	s := &sink{}
	p := New(6, s)
	// Three consecutive block misses: allocate, train, monitor+request.
	p.OnAccess(miss(0x1000_0000, 0))
	p.OnAccess(miss(0x1000_0040, 10))
	if len(s.reqs) != 0 {
		t.Fatalf("prefetches before confirmation: %d", len(s.reqs))
	}
	p.OnAccess(miss(0x1000_0080, 20))
	if len(s.reqs) == 0 {
		t.Fatal("confirmed stream issued no prefetches")
	}
	for _, r := range s.reqs {
		if r.Addr <= 0x1000_0080 {
			t.Fatalf("prefetch %#x not ahead of demand stream", r.Addr)
		}
		if r.Src != prefetch.SrcStream {
			t.Fatalf("source = %v, want stream", r.Src)
		}
	}
	_, degree := prefetch.StreamParams(prefetch.Aggressive)
	if len(s.reqs) != degree {
		t.Fatalf("issued %d prefetches, want degree %d", len(s.reqs), degree)
	}
}

func TestDescendingStream(t *testing.T) {
	s := &sink{}
	p := New(6, s)
	p.OnAccess(miss(0x1000_0800, 0))
	p.OnAccess(miss(0x1000_07c0, 10))
	p.OnAccess(miss(0x1000_0780, 20))
	if len(s.reqs) == 0 {
		t.Fatal("descending stream issued no prefetches")
	}
	for _, r := range s.reqs {
		if r.Addr >= 0x1000_0780 {
			t.Fatalf("prefetch %#x not below demand stream", r.Addr)
		}
	}
}

func TestAdvanceOnFurtherAccesses(t *testing.T) {
	s := &sink{}
	p := New(6, s)
	for i := uint32(0); i < 20; i++ {
		p.OnAccess(miss(0x1000_0000+i*64, int64(i)*10))
	}
	distance, _ := prefetch.StreamParams(prefetch.Aggressive)
	// The stream must keep issuing as the demand advances, staying within
	// distance of the head.
	last := s.reqs[len(s.reqs)-1]
	head := uint32(0x1000_0000 + 19*64)
	if last.Addr <= head || last.Addr > head+uint32(distance)*64 {
		t.Fatalf("last prefetch %#x out of window (head %#x, distance %d)", last.Addr, head, distance)
	}
	// No duplicates.
	seen := map[uint32]bool{}
	for _, r := range s.reqs {
		if seen[r.Addr] {
			t.Fatalf("duplicate prefetch %#x", r.Addr)
		}
		seen[r.Addr] = true
	}
}

func TestConservativeIssuesFewer(t *testing.T) {
	run := func(level prefetch.AggLevel) int {
		s := &sink{}
		p := New(6, s)
		p.SetLevel(level)
		for i := uint32(0); i < 50; i++ {
			p.OnAccess(miss(0x1000_0000+i*64, int64(i)*10))
		}
		return len(s.reqs)
	}
	agg := run(prefetch.Aggressive)
	cons := run(prefetch.VeryConservative)
	if cons >= agg {
		t.Fatalf("very-conservative issued %d >= aggressive %d", cons, agg)
	}
}

func TestRandomMissesNoPrefetch(t *testing.T) {
	s := &sink{}
	p := New(6, s)
	addrs := []uint32{0x1000_0000, 0x1080_0000, 0x1100_0000, 0x1180_0000, 0x1200_0000}
	for i, a := range addrs {
		p.OnAccess(miss(a, int64(i)*10))
	}
	if len(s.reqs) != 0 {
		t.Fatalf("random misses issued %d prefetches, want 0", len(s.reqs))
	}
}

func TestL1HitsIgnored(t *testing.T) {
	s := &sink{}
	p := New(6, s)
	ev := miss(0x1000_0000, 0)
	ev.L1Hit = true
	for i := 0; i < 10; i++ {
		ev.Addr += 64
		p.OnAccess(ev)
	}
	if len(s.reqs) != 0 {
		t.Fatal("L1 hits must not train the stream prefetcher")
	}
}

func TestDisabledIssuesNothing(t *testing.T) {
	s := &sink{}
	p := New(6, s)
	p.Enabled = false
	for i := uint32(0); i < 10; i++ {
		p.OnAccess(miss(0x1000_0000+i*64, int64(i)))
	}
	if len(s.reqs) != 0 {
		t.Fatal("disabled prefetcher issued requests")
	}
}

func TestThrottleInterface(t *testing.T) {
	p := New(6, &sink{})
	var th prefetch.Throttleable = p
	th.SetLevel(prefetch.AggLevel(9))
	if th.Level() != prefetch.Aggressive {
		t.Fatalf("level = %v, want clamped aggressive", th.Level())
	}
	if p.Name() != "stream" || p.Source() != prefetch.SrcStream {
		t.Fatal("identity mismatch")
	}
}
