package hwfilter

import (
	"testing"

	"ldsprefetch/internal/prefetch"
)

func req(addr uint32) prefetch.Request {
	return prefetch.Request{Addr: addr, Src: prefetch.SrcCDP}
}

func TestAllowsByDefault(t *testing.T) {
	f := New(6)
	if !f.Allow(req(0x1000_0000)) {
		t.Fatal("fresh filter must allow")
	}
}

func TestUselessOutcomeSuppresses(t *testing.T) {
	f := New(6)
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
	f := New(6)
	f.Outcome(0x1000_0000, false)
	f.Outcome(0x1000_0000, true)
	if !f.Allow(req(0x1000_0000)) {
		t.Fatal("useful outcome must clear the suppress bit")
	}
}

// TestDefaultSizeIs8KB checks that New builds the paper's 8 KB table, through
// aliasing: the hash multiplier is odd, so two blocks share an entry exactly
// when their block numbers are equal modulo the table's 65536 entries.
func TestDefaultSizeIs8KB(t *testing.T) {
	const blk = 0x1000_0000
	f := New(6)
	f.Outcome(blk, false)
	if f.Allow(req(blk + 1<<16<<6)) {
		t.Fatal("block 65536 blocks away must alias in an 8 KB table")
	}
	if !f.Allow(req(blk + 1<<15<<6)) {
		t.Fatal("block 32768 blocks away aliases: table smaller than 8 KB")
	}
}
