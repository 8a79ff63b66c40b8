package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestReadUnwrittenIsZero(t *testing.T) {
	m := New()
	if got := m.Read32(HeapBase); got != 0 {
		t.Fatalf("Read32 of unwritten = %#x, want 0", got)
	}
	if got := m.Read8(StackBase); got != 0 {
		t.Fatalf("Read8 of unwritten = %#x, want 0", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New()
	m.Write32(HeapBase+4, 0xdeadbeef)
	if got := m.Read32(HeapBase + 4); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, want 0xdeadbeef", got)
	}
	// Little-endian byte order.
	if got := m.Read8(HeapBase + 4); got != 0xef {
		t.Fatalf("low byte = %#x, want 0xef", got)
	}
	if got := m.Read8(HeapBase + 7); got != 0xde {
		t.Fatalf("high byte = %#x, want 0xde", got)
	}
}

func TestWrite32PageStraddle(t *testing.T) {
	m := New()
	addr := HeapBase + pageSize - 2 // straddles two pages
	m.Write32(addr, 0x11223344)
	if got := m.Read32(addr); got != 0x11223344 {
		t.Fatalf("straddling Read32 = %#x, want 0x11223344", got)
	}
}

func TestWrite32ReadBack(t *testing.T) {
	m := New()
	f := func(off uint16, v uint32) bool {
		addr := HeapBase + uint32(off)*4
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadBlock(t *testing.T) {
	m := New()
	base := HeapBase + 128
	for i := uint32(0); i < 16; i++ {
		m.Write32(base+4*i, 0x1000_0000+i)
	}
	var blk [64]byte
	m.ReadBlock(base+20, blk[:]) // unaligned addr must align down
	for i := uint32(0); i < 16; i++ {
		got := uint32(blk[4*i]) | uint32(blk[4*i+1])<<8 | uint32(blk[4*i+2])<<16 | uint32(blk[4*i+3])<<24
		if got != 0x1000_0000+i {
			t.Fatalf("word %d = %#x, want %#x", i, got, 0x1000_0000+i)
		}
	}
}

func TestReadBlockUnwritten(t *testing.T) {
	m := New()
	blk := make([]byte, 64)
	blk[0] = 0xff
	m.ReadBlock(StackBase+1024, blk)
	for i, b := range blk {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestAllocatorConsecutive(t *testing.T) {
	m := New()
	a := NewAllocator(m, 1<<20, 4)
	p1 := a.Alloc(16)
	p2 := a.Alloc(16)
	if p1 != HeapBase {
		t.Fatalf("first alloc = %#x, want %#x", p1, HeapBase)
	}
	if p2 != p1+16 {
		t.Fatalf("allocations not consecutive: %#x then %#x", p1, p2)
	}
}

func TestAllocatorAlignment(t *testing.T) {
	m := New()
	a := NewAllocator(m, 1<<20, 8)
	p1 := a.Alloc(12)
	p2 := a.Alloc(12)
	if p1%8 != 0 || p2%8 != 0 {
		t.Fatalf("allocations not 8-aligned: %#x %#x", p1, p2)
	}
	if p2 != p1+16 {
		t.Fatalf("second allocation at %#x, want the next 8-aligned address %#x", p2, p1+16)
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on heap exhaustion")
		}
	}()
	a := NewAllocator(New(), 32, 4)
	a.Alloc(64)
}

func TestBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-power-of-two alignment")
		}
	}()
	NewAllocator(New(), 1024, 3)
}

// TestAllocNoWraparound is the boundary regression for the 64-bit bounds
// check: a size that pushes addr+size past 2^32 must panic, not wrap around
// the address space and "succeed" with an aliased allocation (the old
// uint32 comparison let Alloc(0xFFFF_FFF0) through).
func TestAllocNoWraparound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: allocation wraps the 32-bit address space")
		}
	}()
	a := NewAllocator(New(), StackBase-HeapBase, 4)
	a.Alloc(0xFFFF_FFF0)
}

// TestAllocExactFit verifies the boundary itself is usable: a region can be
// filled to the last byte, and the next allocation fails.
func TestAllocExactFit(t *testing.T) {
	a := NewAllocator(New(), 64, 4)
	if got := a.Alloc(64); got != HeapBase {
		t.Fatalf("exact-fit alloc = %#x, want %#x", got, HeapBase)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic after exhausting the region")
		}
	}()
	a.Alloc(1)
}

// TestNewAllocatorCapacityOverrun verifies an oversized heap fails at
// construction with a clear message instead of wrapping limit past 2^32
// (the old HeapBase+capacity could wrap to a tiny limit) or silently
// overlapping the stack region.
func TestNewAllocatorCapacityOverrun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: capacity overruns the stack region")
		}
	}()
	NewAllocator(New(), 0xF000_0000, 4)
}

func TestClone(t *testing.T) {
	m := New()
	m.Write32(HeapBase, 0x11111111)
	m.Write32(StackBase-64, 0x22222222)
	c := m.Clone()
	if got := c.Read32(HeapBase); got != 0x11111111 {
		t.Fatalf("clone Read32 = %#x, want 0x11111111", got)
	}
	c.Write32(HeapBase, 0x33333333)
	if got := m.Read32(HeapBase); got != 0x11111111 {
		t.Fatalf("mutating clone changed master: %#x", got)
	}
	m.Write32(StackBase-64, 0x44444444)
	if got := c.Read32(StackBase - 64); got != 0x22222222 {
		t.Fatalf("mutating master changed clone: %#x", got)
	}
	if !slices.Equal(c.Pages(), m.Pages()) {
		t.Fatalf("pages differ: %#x vs %#x", c.Pages(), m.Pages())
	}
}

// TestPageCacheSeesLateCreation covers the last-page-cache hazard: a read of
// an unwritten page must not cache the miss, or a later write (which creates
// the page) would be invisible to reads through the stale cache entry.
func TestPageCacheSeesLateCreation(t *testing.T) {
	m := New()
	if got := m.Read8(HeapBase); got != 0 {
		t.Fatalf("unwritten read = %#x", got)
	}
	m.Write8(HeapBase, 0xab)
	if got := m.Read8(HeapBase); got != 0xab {
		t.Fatalf("read after write through cached miss = %#x, want 0xab", got)
	}
	// Alternate between two pages to exercise cache replacement.
	m.Write8(GlobalBase, 0xcd)
	if got := m.Read8(HeapBase); got != 0xab {
		t.Fatalf("page switch lost data: %#x", got)
	}
	if got := m.Read8(GlobalBase); got != 0xcd {
		t.Fatalf("page switch lost data: %#x", got)
	}
}

// TestPagesAcrossDirectorySlots writes pages in the globals, heap and stack
// regions, which sit under different top-level directory slots, out of
// address order. Pages must come back ascending, and a clone must be deep
// in every slot.
func TestPagesAcrossDirectorySlots(t *testing.T) {
	m := New()
	addrs := []uint32{StackBase - 4, HeapBase + 3*pageSize, GlobalBase, HeapBase}
	for i, a := range addrs {
		m.Write32(a, uint32(i+1))
	}
	want := []uint32{GlobalBase >> pageShift, HeapBase >> pageShift, HeapBase>>pageShift + 3, (StackBase - 4) >> pageShift}
	got := m.Pages()
	if len(got) != len(want) {
		t.Fatalf("Pages() = %#x, want %#x", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pages() = %#x, want %#x", got, want)
		}
	}

	c := m.Clone()
	for _, a := range addrs {
		c.Write32(a, 0xdead)
	}
	for i, a := range addrs {
		if v := m.Read32(a); v != uint32(i+1) {
			t.Fatalf("writing the clone at %#x changed the original to %#x", a, v)
		}
	}
	if cp := c.Pages(); !slices.Equal(cp, got) {
		t.Fatalf("clone pages %#x, original %#x", cp, got)
	}
}

// TestSetPageBytes checks that installing a page replaces its contents,
// counts a page once however often it is set, and refuses page numbers
// outside the address space.
func TestSetPageBytes(t *testing.T) {
	m := New()
	pn := HeapBase >> pageShift
	m.Write8(HeapBase+100, 7) // the page exists before it is set
	m.SetPageBytes(pn, []byte{1, 2, 3})
	m.SetPageBytes(pn, []byte{4, 5})
	if pages := m.Pages(); len(pages) != 1 {
		t.Fatalf("pages = %#x after setting one page twice, want one", pages)
	}
	if got := m.Read32(HeapBase); got != 0x0504 {
		t.Fatalf("Read32 = %#x, want 0x0504 (zero-extended second contents)", got)
	}
	if got := m.Read8(HeapBase + 100); got != 0 {
		t.Fatalf("byte written before SetPageBytes survived: %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetPageBytes accepted page number NumPages")
		}
	}()
	m.SetPageBytes(NumPages, nil)
}
