package hwfilter

import (
	"testing"

	"ldsprefetch/internal/prefetch"
)

func req(addr uint32) prefetch.Request {
	return prefetch.Request{Addr: addr, Src: prefetch.SrcCDP}
}

func TestAllowsByDefault(t *testing.T) {
	f := New(1<<16, 6)
	if !f.Allow(req(0x1000_0000)) {
		t.Fatal("fresh filter must allow")
	}
	if f.Passed != 1 || f.Filtered != 0 {
		t.Fatalf("counters = %d/%d", f.Passed, f.Filtered)
	}
}

func TestUselessOutcomeSuppresses(t *testing.T) {
	f := New(1<<16, 6)
	f.Outcome(0x1000_0000, false)
	if f.Allow(req(0x1000_0000)) {
		t.Fatal("block with useless history must be filtered")
	}
	// A different block is unaffected (modulo hash collisions; chosen to
	// differ).
	if !f.Allow(req(0x1000_0040)) {
		t.Fatal("unrelated block filtered")
	}
}

func TestUsefulOutcomeClears(t *testing.T) {
	f := New(1<<16, 6)
	f.Outcome(0x1000_0000, false)
	f.Outcome(0x1000_0000, true)
	if !f.Allow(req(0x1000_0000)) {
		t.Fatal("useful outcome must clear the suppress bit")
	}
}

func TestSizeBits(t *testing.T) {
	f := New(1<<16, 6)
	if f.SizeBits() != 1<<16 {
		t.Fatalf("size = %d bits, want 65536 (the paper's 8KB)", f.SizeBits())
	}
}

func TestDefaultSizeIs8KB(t *testing.T) {
	f := New(0, 6)
	if f.SizeBits() != 8*1024*8 {
		t.Fatalf("default size = %d bits, want 65536", f.SizeBits())
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1000, 6)
}
