package cache

import (
	"testing"
	"testing/quick"

	"ldsprefetch/internal/prefetch"
)

func TestBlockAddr(t *testing.T) {
	c := New("l2", 1<<20, 8, 64)
	if got := c.BlockAddr(0x1000_0047); got != 0x1000_0040 {
		t.Fatalf("BlockAddr = %#x, want 0x10000040", got)
	}
	if c.BlockShift() != 6 {
		t.Fatalf("BlockShift = %d, want 6", c.BlockShift())
	}
}

func TestInsertLookup(t *testing.T) {
	c := New("l1", 1<<10, 2, 64)
	line, _, evicted := c.Insert(0x1000_0000)
	if evicted {
		t.Fatal("empty cache must not evict")
	}
	line.PrefSrc = prefetch.SrcStream
	got := c.Lookup(0x1000_0004, true) // same block, different byte
	if got == nil || got.PrefSrc != prefetch.SrcStream {
		t.Fatal("lookup after insert failed or lost metadata")
	}
	if c.Lookup(0x2000_0000, false) != nil {
		t.Fatal("lookup of absent block must miss")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("tiny", 2*64, 2, 64) // one set, two ways
	c.Insert(0x1000_0000)
	c.Insert(0x1000_1000)
	c.Lookup(0x1000_0000, true) // make the first block MRU
	_, victim, had := c.Insert(0x1000_2000)
	if !had {
		t.Fatal("full set must evict")
	}
	if victim.Tag != 0x1000_1000>>6 {
		t.Fatalf("evicted tag %#x, want the LRU block 0x10001000", victim.Tag<<6)
	}
	if c.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions)
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := New("tiny", 2*64, 2, 64)
	l1, _, _ := c.Insert(0x1000_0000)
	l1.Dirty = true
	l2, _, had := c.Insert(0x1000_0000)
	if had {
		t.Fatal("reinsert of present block must not evict")
	}
	if !l2.Dirty {
		t.Fatal("reinsert must preserve line state")
	}
	if c.Evictions != 0 {
		t.Fatal("reinsert must not count an eviction")
	}
}

func TestSetIndexingDistributes(t *testing.T) {
	c := New("l2", 1<<16, 1, 64) // direct-mapped, 1024 sets
	// Blocks mapping to different sets must coexist.
	for i := uint32(0); i < 1024; i++ {
		c.Insert(0x1000_0000 + i*64)
	}
	if c.Evictions != 0 {
		t.Fatalf("distinct sets evicted %d times, want 0", c.Evictions)
	}
	for i := uint32(0); i < 1024; i++ {
		if c.Lookup(0x1000_0000+i*64, false) == nil {
			t.Fatalf("block %d missing", i)
		}
	}
}

func TestConflictEviction(t *testing.T) {
	c := New("l2", 1<<16, 1, 64)
	// Same set, different tags (stride = number of sets * block).
	c.Insert(0x1000_0000)
	c.Insert(0x1000_0000 + 1<<16)
	if c.Lookup(0x1000_0000, false) != nil {
		t.Fatal("conflicting block must have been evicted")
	}
}

func TestLookupNeverCorruptsProperty(t *testing.T) {
	c := New("l2", 1<<12, 4, 64)
	inserted := map[uint32]bool{}
	f := func(raw uint16) bool {
		addr := 0x1000_0000 + uint32(raw)*64
		c.Insert(addr)
		inserted[c.BlockAddr(addr)] = true
		// A lookup immediately after insert must hit.
		return c.Lookup(addr, true) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 1000, 3, 64) },
		func() { New("x", 1<<10, 2, 48) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for bad geometry")
				}
			}()
			f()
		}()
	}
}
