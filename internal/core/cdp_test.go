package core

import (
	"encoding/binary"
	"testing"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

type sink struct{ reqs []prefetch.Request }

func (s *sink) Issue(r prefetch.Request) { s.reqs = append(s.reqs, r) }

// block builds a 64-byte block with the given words.
func block(words map[int]uint32) []byte {
	b := make([]byte, 64)
	//ldslint:ordered disjoint word slots written into a fresh buffer; order-independent
	for w, v := range words {
		binary.LittleEndian.PutUint32(b[w*4:], v)
	}
	return b
}

func demandFill(data []byte, blockAddr, pc uint32, off int) memsys.FillEvent {
	return memsys.FillEvent{
		Now: 100, BlockAddr: blockAddr, Data: data,
		Cause: prefetch.SrcDemand, TriggerPC: pc, TriggerOff: off, TriggerIsLoad: true,
	}
}

func TestOriginalCDPPrefetchesAllPointers(t *testing.T) {
	s := &sink{}
	c := NewCDP(DefaultCDPConfig(), s)
	// Block at heap address; words 1 and 5 are heap pointers, word 2 is a
	// small integer, word 3 points outside the compare-bit region.
	data := block(map[int]uint32{
		1: 0x1000_2000,
		2: 42,
		3: 0x7f00_0000,
		5: 0x10ff_ffc0,
	})
	c.OnFill(demandFill(data, 0x1000_0040, 7, 0))
	if len(s.reqs) != 2 {
		t.Fatalf("issued %d prefetches, want 2 (all heap pointers)", len(s.reqs))
	}
	if s.reqs[0].Addr != 0x1000_2000 || s.reqs[1].Addr != 0x10ff_ffc0 {
		t.Fatalf("prefetch addrs = %#x, %#x", s.reqs[0].Addr, s.reqs[1].Addr)
	}
	for _, r := range s.reqs {
		if r.Depth != 1 || r.Src != prefetch.SrcCDP {
			t.Fatalf("bad request %+v", r)
		}
	}
	// PG attribution: offsets relative to the accessed byte (0).
	if s.reqs[0].PG != prefetch.MakePGKey(7, 1) || s.reqs[1].PG != prefetch.MakePGKey(7, 5) {
		t.Fatalf("PGs = %v, %v", s.reqs[0].PG, s.reqs[1].PG)
	}
}

func TestPointerPredictorMatchesTopByte(t *testing.T) {
	s := &sink{}
	c := NewCDP(DefaultCDPConfig(), s)
	// 8 compare bits: top byte must match the block address's top byte.
	data := block(map[int]uint32{
		0: 0x1100_0000, // top byte 0x11 != 0x10 → not a pointer
		1: 0x10aa_bbc0, // top byte 0x10 → pointer
	})
	c.OnFill(demandFill(data, 0x1000_0040, 7, 0))
	if len(s.reqs) != 1 || s.reqs[0].Addr != 0x10aa_bbc0 {
		t.Fatalf("reqs = %+v, want only the 0x10xxxxxx value", s.reqs)
	}
}

func TestECDPFiltersByHints(t *testing.T) {
	hints := NewHintTable()
	hints.Mark(7, 2) // only the PG at word offset +2 is beneficial
	cfg := DefaultCDPConfig()
	cfg.Hints = hints
	s := &sink{}
	c := NewCDP(cfg, s)
	data := block(map[int]uint32{
		1: 0x1000_1000, // harmful PG → filtered
		2: 0x1000_2000, // beneficial PG → prefetched
		3: 0x1000_3000, // harmful PG → filtered
	})
	c.OnFill(demandFill(data, 0x1000_0040, 7, 0))
	if len(s.reqs) != 1 || s.reqs[0].Addr != 0x1000_2000 {
		t.Fatalf("reqs = %+v, want only the beneficial PG", s.reqs)
	}
	if c.Name() != "ecdp" {
		t.Fatalf("name = %q, want ecdp", c.Name())
	}
}

func TestECDPAnchorsAtAccessedByte(t *testing.T) {
	// The hint offsets are relative to the byte the load accesses
	// (paper Figure 6: access at byte 12, bit 2 → prefetch byte 20).
	hints := NewHintTable()
	hints.Mark(7, 2)
	cfg := DefaultCDPConfig()
	cfg.Hints = hints
	s := &sink{}
	c := NewCDP(cfg, s)
	data := block(map[int]uint32{
		5: 0x1000_5000, // byte 20 = accessed byte 12 + offset 8 (word +2)
		2: 0x1000_2000, // word offset -1 from anchor → filtered
	})
	c.OnFill(demandFill(data, 0x1000_0040, 7, 12))
	if len(s.reqs) != 1 || s.reqs[0].Addr != 0x1000_5000 {
		t.Fatalf("reqs = %+v, want only byte-20 pointer", s.reqs)
	}
}

func TestECDPNegativeOffsets(t *testing.T) {
	hints := NewHintTable()
	hints.Mark(7, -3) // beneficial PG at byte offset -12
	cfg := DefaultCDPConfig()
	cfg.Hints = hints
	s := &sink{}
	c := NewCDP(cfg, s)
	data := block(map[int]uint32{
		0: 0x1000_9000, // word 0 = anchor word 3 + offset -3
		1: 0x1000_1000,
	})
	c.OnFill(demandFill(data, 0x1000_0040, 7, 12))
	if len(s.reqs) != 1 || s.reqs[0].Addr != 0x1000_9000 {
		t.Fatalf("reqs = %+v, want only the negative-offset pointer", s.reqs)
	}
	if s.reqs[0].PG.WordOff() != -3 {
		t.Fatalf("PG offset = %d, want -3", s.reqs[0].PG.WordOff())
	}
}

func TestECDPUnprofiledLoadPrefetchesNothing(t *testing.T) {
	cfg := DefaultCDPConfig()
	cfg.Hints = NewHintTable()
	s := &sink{}
	c := NewCDP(cfg, s)
	data := block(map[int]uint32{1: 0x1000_1000})
	c.OnFill(demandFill(data, 0x1000_0040, 99, 0))
	if len(s.reqs) != 0 {
		t.Fatalf("unprofiled load issued %d prefetches, want 0", len(s.reqs))
	}
}

// TestRecursivePrefetchAllPointersNoPG: a CDP-prefetched block is scanned
// for all pointers even under ECDP (the hint filter applies only to demand
// fills), and the recursive prefetches are attributed to no pointer group,
// not to the root PG that led to the block (paper Figure 3).
func TestRecursivePrefetchAllPointersNoPG(t *testing.T) {
	hints := NewHintTable()
	hints.Mark(7, 1)
	cfg := DefaultCDPConfig()
	cfg.Hints = hints
	s := &sink{}
	c := NewCDP(cfg, s)
	data := block(map[int]uint32{
		0: 0x1000_1000,
		9: 0x1000_9000,
	})
	c.OnFill(memsys.FillEvent{
		Now: 500, BlockAddr: 0x1000_2000, Data: data,
		Cause: prefetch.SrcCDP, Depth: 1, PG: prefetch.MakePGKey(7, 1), TriggerOff: -1,
	})
	if len(s.reqs) != 2 {
		t.Fatalf("recursive scan issued %d, want 2", len(s.reqs))
	}
	for _, r := range s.reqs {
		if r.PG != 0 || r.Depth != 2 {
			t.Fatalf("recursive request %+v, want no PG and depth 2", r)
		}
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	s := &sink{}
	c := NewCDP(DefaultCDPConfig(), s)
	c.SetLevel(prefetch.Conservative) // max depth 2
	data := block(map[int]uint32{0: 0x1000_1000})
	c.OnFill(memsys.FillEvent{
		Now: 1, BlockAddr: 0x1000_2000, Data: data,
		Cause: prefetch.SrcCDP, Depth: 2, TriggerOff: -1,
	})
	if len(s.reqs) != 0 {
		t.Fatalf("scan at max depth issued %d, want 0", len(s.reqs))
	}
	c.SetLevel(prefetch.Moderate) // max depth 3
	c.OnFill(memsys.FillEvent{
		Now: 1, BlockAddr: 0x1000_2000, Data: data,
		Cause: prefetch.SrcCDP, Depth: 2, TriggerOff: -1,
	})
	if len(s.reqs) != 1 || s.reqs[0].Depth != 3 {
		t.Fatalf("reqs = %+v, want one depth-3 prefetch", s.reqs)
	}
}

func TestStoreMissNotScanned(t *testing.T) {
	s := &sink{}
	c := NewCDP(DefaultCDPConfig(), s)
	ev := demandFill(block(map[int]uint32{0: 0x1000_1000}), 0x1000_0040, 7, 0)
	ev.TriggerIsLoad = false
	c.OnFill(ev)
	if len(s.reqs) != 0 {
		t.Fatal("store-miss fills must not be scanned")
	}
}

func TestDisabledCDP(t *testing.T) {
	s := &sink{}
	c := NewCDP(DefaultCDPConfig(), s)
	c.Enabled = false
	c.OnFill(demandFill(block(map[int]uint32{0: 0x1000_1000}), 0x1000_0040, 7, 0))
	if len(s.reqs) != 0 {
		t.Fatal("disabled CDP issued prefetches")
	}
}

func TestCDPIdentity(t *testing.T) {
	c := NewCDP(DefaultCDPConfig(), &sink{})
	if c.Name() != "cdp" || c.Source() != prefetch.SrcCDP {
		t.Fatal("identity mismatch")
	}
	if c.MaxDepth() != 4 {
		t.Fatalf("default max depth = %d, want 4 (aggressive)", c.MaxDepth())
	}
}
