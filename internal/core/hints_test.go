package core

import (
	"testing"
	"testing/quick"
)

func TestHintVecSetAllows(t *testing.T) {
	var h HintVec
	h.Set(2)
	h.Set(6)
	h.Set(-3)
	for off := -16; off < 16; off++ {
		want := off == 2 || off == 6 || off == -3
		if h.Allows(off) != want {
			t.Errorf("Allows(%d) = %v, want %v", off, h.Allows(off), want)
		}
	}
}

func TestHintVecPaperFigure6(t *testing.T) {
	// Paper Figure 6: bits 2, 6, 11 set; load accesses byte 12 of the block;
	// prefetches only at offsets +8, +24, +44 (bytes 20, 36, 56).
	var h HintVec
	for _, n := range []int{2, 6, 11} {
		h.Set(n)
	}
	wantOffsets := map[int]bool{2: true, 6: true, 11: true}
	for off := 0; off < 16; off++ {
		if h.Allows(off) != wantOffsets[off] {
			t.Errorf("word offset %d (byte %+d): Allows = %v, want %v",
				off, off*4, h.Allows(off), wantOffsets[off])
		}
	}
}

func TestHintVecRoundTripProperty(t *testing.T) {
	f := func(raw int8) bool {
		off := int(raw) % 32 // within representable range
		var h HintVec
		h.Set(off)
		return h.Allows(off) && !h.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHintVecOutOfRange(t *testing.T) {
	var h HintVec
	h.Set(40)  // silently ignored
	h.Set(-40) // silently ignored
	if !h.Empty() {
		t.Fatal("out-of-range offsets must not set bits")
	}
	if h.Allows(40) || h.Allows(-40) {
		t.Fatal("out-of-range offsets must not be allowed")
	}
}

func TestHintTable(t *testing.T) {
	tbl := NewHintTable()
	if _, ok := tbl.Lookup(5); ok {
		t.Fatal("empty table must not contain entries")
	}
	tbl.Mark(5, 2)
	tbl.Mark(5, -1)
	tbl.Mark(9, 0)
	v, ok := tbl.Lookup(5)
	if !ok || !v.Allows(2) || !v.Allows(-1) || v.Allows(3) {
		t.Fatalf("lookup(5) = %v, %v", v, ok)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	pcs := tbl.PCs()
	if len(pcs) != 2 || pcs[0] != 5 || pcs[1] != 9 {
		t.Fatalf("PCs = %v, want [5 9]", pcs)
	}
}

func TestTable7Cost(t *testing.T) {
	c := PaperCost()
	if c.PrefetchedBits != 16384 {
		t.Errorf("prefetched bits = %d, want 16384", c.PrefetchedBits)
	}
	if c.CounterBits != 176 {
		t.Errorf("counter bits = %d, want 176", c.CounterBits)
	}
	if c.MSHRHintBits != 736 {
		t.Errorf("MSHR hint bits = %d, want 736", c.MSHRHintBits)
	}
	if c.TotalBits() != 17296 {
		t.Errorf("total = %d bits, want the paper's 17296", c.TotalBits())
	}
	if kb := c.TotalKB(); kb < 2.10 || kb > 2.12 {
		t.Errorf("total = %.3f KB, want ~2.11", kb)
	}
	if p := c.AreaOverheadPercent(1 << 20); p < 0.20 || p > 0.21 {
		t.Errorf("overhead = %.3f%%, want ~0.206%%", p)
	}
}
