package ghb

import (
	"testing"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

type sink struct{ reqs []prefetch.Request }

func (s *sink) Issue(r prefetch.Request) { s.reqs = append(s.reqs, r) }

func miss(addr uint32) memsys.AccessEvent {
	return memsys.AccessEvent{Addr: addr, IsLoad: true}
}

func TestConstantStrideCorrelation(t *testing.T) {
	s := &sink{}
	p := New(1024, 6, s)
	// Misses with constant stride 3 blocks: after the delta pair (3,3)
	// repeats, G/DC replays the following deltas.
	for i := uint32(0); i < 8; i++ {
		p.OnAccess(miss(0x1000_0000 + i*3*64))
	}
	if len(s.reqs) == 0 {
		t.Fatal("constant stride produced no prefetches")
	}
	// Prefetches must continue the stride.
	for _, r := range s.reqs {
		if (r.Addr-0x1000_0000)%(3*64) != 0 {
			t.Fatalf("prefetch %#x off the stride", r.Addr)
		}
		if r.Src != prefetch.SrcGHB {
			t.Fatalf("source = %v", r.Src)
		}
	}
}

func TestRepeatingDeltaPattern(t *testing.T) {
	s := &sink{}
	p := New(1024, 6, s)
	// Pattern of deltas +1, +5 repeating (correlation, not stride).
	addr := uint32(0x1000_0000)
	deltas := []uint32{1, 5, 1, 5, 1, 5, 1, 5}
	p.OnAccess(miss(addr))
	for _, d := range deltas {
		addr += d * 64
		p.OnAccess(miss(addr))
	}
	if len(s.reqs) == 0 {
		t.Fatal("repeating delta pair produced no prefetches")
	}
	// The first prediction after seeing (1,5) again should be +1 then +5...
	got := (s.reqs[0].Addr - 0x1000_0000) / 64
	if got%6 != 1 && got%6 != 0 && got%6 != 2 {
		t.Logf("first prefetch block offset %d (pattern period 6)", got)
	}
}

func TestRandomMissesQuiet(t *testing.T) {
	s := &sink{}
	p := New(1024, 6, s)
	addrs := []uint32{0x1000_0000, 0x1350_0000, 0x1020_0000, 0x1777_0000,
		0x1111_0000, 0x1999_0000, 0x1234_0000}
	for _, a := range addrs {
		p.OnAccess(miss(a))
	}
	if len(s.reqs) != 0 {
		t.Fatalf("random misses issued %d prefetches", len(s.reqs))
	}
}

func TestDegreeFollowsLevel(t *testing.T) {
	count := func(level prefetch.AggLevel) int {
		s := &sink{}
		p := New(1024, 6, s)
		p.SetLevel(level)
		for i := uint32(0); i < 16; i++ {
			p.OnAccess(miss(0x1000_0000 + i*64))
		}
		return len(s.reqs)
	}
	if count(prefetch.VeryConservative) >= count(prefetch.Aggressive) {
		t.Fatal("higher level must issue more")
	}
}

func TestWrapAroundSafe(t *testing.T) {
	s := &sink{}
	p := New(8, 6, s) // tiny GHB: constant overwriting
	for i := uint32(0); i < 100; i++ {
		p.OnAccess(miss(0x1000_0000 + i*2*64))
	}
	// Must not panic and must still predict the stride.
	if len(s.reqs) == 0 {
		t.Fatal("no prefetches from a wrapped GHB")
	}
}

func TestIdentity(t *testing.T) {
	p := New(0, 6, &sink{})
	if p.Name() != "ghb" || p.Source() != prefetch.SrcGHB {
		t.Fatal("identity mismatch")
	}
	p.Enabled = false
	for i := uint32(0); i < 8; i++ {
		p.OnAccess(miss(0x1000_0000 + i*64))
	}
	if len(p.issuerSink()) != 0 {
		t.Fatal("disabled prefetcher issued")
	}
}

// issuerSink exposes the test sink contents.
func (p *Prefetcher) issuerSink() []prefetch.Request {
	if s, ok := p.issuer.(*sink); ok {
		return s.reqs
	}
	return nil
}
