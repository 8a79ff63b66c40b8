// Package cache implements the set-associative caches of the simulated
// memory hierarchy: LRU replacement, dirty bits, fill timestamps (so late
// prefetches are modelled), and the per-line prefetch metadata the paper's
// feedback mechanism needs ("the tag entry of each cache block is extended by
// one prefetched bit per prefetcher").
package cache

import (
	"fmt"
	"math/bits"

	"ldsprefetch/internal/prefetch"
)

// Line is one cache line's tag-store state.
type Line struct {
	// Tag is the block address (addr >> blockShift) stored in this line.
	Tag uint32
	// ReadyAt is the cycle the fill completed; a demand access earlier than
	// this observes the remaining fill latency (late prefetch).
	ReadyAt int64
	// IssuedAt is the cycle the fill request was created; a demand that
	// merges with an in-flight prefetch is promoted to demand priority and
	// completes no later than IssuedAt plus the uncontended memory latency.
	IssuedAt int64
	// PG is the root pointer group the fill is attributed to (CDP fills).
	PG prefetch.PGKey
	// PrefSrc is the prefetcher that filled the line (SrcDemand for demand
	// fills). This implements the paper's per-prefetcher prefetched bits.
	PrefSrc prefetch.Source
	// Depth is the CDP recursion depth of the fill.
	Depth uint8
	// Valid marks the line as holding a block.
	Valid bool
	// Dirty marks the block as modified (eviction causes a writeback).
	Dirty bool
	// Used marks a prefetched line as having been consumed by a demand
	// request. Demand fills are born Used.
	Used bool

	lru uint64
}

// Cache is a set-associative cache tag store. It tracks no data contents —
// block data always comes from the simulated memory image, which the replay
// keeps consistent in program order.
type Cache struct {
	name       string
	sets       [][]Line
	blockShift uint
	setShift   uint
	setMask    uint32
	tick       uint64

	// Evictions counts valid lines displaced (the paper's interval unit).
	Evictions int64
}

// New constructs a cache. sizeBytes, ways, and blockSize must yield a
// power-of-two number of sets.
func New(name string, sizeBytes, ways, blockSize int) *Cache {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: block size %d not a power of two", name, blockSize))
	}
	nsets := sizeBytes / (ways * blockSize)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets (size %d, ways %d, block %d) not a power of two",
			name, nsets, sizeBytes, ways, blockSize))
	}
	c := &Cache{
		name:       name,
		sets:       make([][]Line, nsets),
		setMask:    uint32(nsets - 1),
		blockShift: uint(bits.TrailingZeros(uint(blockSize))),
	}
	lines := make([]Line, nsets*ways)
	for i := range c.sets {
		c.sets[i] = lines[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

// BlockShift returns log2 of the block size.
func (c *Cache) BlockShift() uint { return c.blockShift }

// BlockAddr aligns addr down to its block.
func (c *Cache) BlockAddr(addr uint32) uint32 {
	return addr &^ ((1 << c.blockShift) - 1)
}

func (c *Cache) set(addr uint32) []Line {
	return c.sets[(addr>>c.blockShift)&c.setMask]
}

// Lookup finds the line holding addr. If touch is true a hit refreshes LRU.
// Returns nil on miss.
func (c *Cache) Lookup(addr uint32, touch bool) *Line {
	if l, hit := c.Probe(addr, touch); hit {
		return l
	}
	return nil
}

// Insert places a block into the cache, evicting the LRU line of the set if
// necessary. It returns the inserted line (for the caller to set metadata)
// and, if a valid line was displaced, a copy of the victim. A block already
// present (e.g. racing fills) is refreshed in place.
func (c *Cache) Insert(addr uint32) (*Line, Line, bool) {
	l, hit := c.Probe(addr, true)
	if hit {
		return l, Line{}, false
	}
	evicted, had := c.Fill(l, addr)
	return l, evicted, had
}

// Probe scans addr's set once. On a hit it returns the line holding addr and
// true; if touch is set the hit refreshes LRU. On a miss it returns the line
// a fill of addr replaces — the last invalid way, or else the least recently
// used one — and false, so that a miss costs one scan however it continues.
//
// The victim stays the right one for Fill only while this cache's tag store
// is unchanged: pass it to Fill before any other Probe-and-Fill, Insert or
// Lookup with touch set on this cache. The memory system keeps that
// invariant by construction: between an access's probe and its fill it runs
// only outcome subscribers, the prefetch filter, DRAM and feedback hooks,
// none of which touches a cache, and a recursive prefetch Issue starts only
// after the fill.
func (c *Cache) Probe(addr uint32, touch bool) (*Line, bool) {
	tag := addr >> c.blockShift
	set := c.set(addr)
	// The victim is the last way with the least key, where an invalid
	// way's key is 0 and a valid way's is its lru: every fill and touch
	// takes a fresh tick, so valid keys are distinct and at least 1. Kept
	// as plain compare-and-assign so that it compiles without branches.
	v, vkey := 0, ^uint64(0)
	for i := range set {
		l := &set[i]
		if l.Valid && l.Tag == tag {
			if touch {
				c.tick++
				l.lru = c.tick
			}
			return l, true
		}
		key := l.lru
		if !l.Valid {
			key = 0
		}
		if key <= vkey {
			v, vkey = i, key
		}
	}
	return &set[v], false
}

// Fill installs addr's block into victim, the line a missing Probe of addr
// returned, and returns a copy of the valid line it displaced, if any. The
// installed line carries no metadata; the caller sets it.
func (c *Cache) Fill(victim *Line, addr uint32) (Line, bool) {
	var evicted Line
	had := victim.Valid
	if had {
		evicted = *victim
		c.Evictions++
	}
	c.tick++
	*victim = Line{Tag: addr >> c.blockShift, Valid: true, lru: c.tick}
	return evicted, had
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// ForEach calls f for every valid line (end-of-run accounting).
func (c *Cache) ForEach(f func(*Line)) {
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid {
				f(&set[i])
			}
		}
	}
}
