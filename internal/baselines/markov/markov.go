// Package markov implements the Markov prefetcher baseline (Joseph &
// Grunwald, ISCA 1997) compared against in paper Section 6.3: a correlation
// table keyed by miss block address whose entries record up to four
// successor miss addresses in MRU order. On a miss, the current address's
// recorded successors are prefetched. The paper sizes the table at 1 MB —
// two orders of magnitude more storage than the proposal's 2.11 KB — and
// notes that Markov can only prefetch addresses it has already observed.
package markov

import (
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

// Successors per entry, per the paper ("each entry contains 4 addresses").
const successors = 4

type entry struct {
	key  uint32
	next [successors]uint32 // successor block addresses, MRU first
	used bool
}

// Prefetcher is a Markov correlation prefetcher.
type Prefetcher struct {
	entries    []entry
	index      map[uint32]int
	clock      int
	prevMiss   uint32
	havePrev   bool
	level      prefetch.AggLevel
	issuer     prefetch.Issuer
	blockShift uint
	// Enabled gates prefetch issue.
	Enabled bool
}

// TableEntriesFor1MB is the entry count of a 1 MB table (20 B per entry:
// 4-byte tag + four 4-byte successors).
const TableEntriesFor1MB = (1 << 20) / 20

// New builds a Markov prefetcher with the given table capacity in entries.
func New(capacity int, blockShift uint, iss prefetch.Issuer) *Prefetcher {
	if capacity <= 0 {
		capacity = TableEntriesFor1MB
	}
	return &Prefetcher{
		entries:    make([]entry, capacity),
		index:      make(map[uint32]int, capacity),
		level:      prefetch.Aggressive,
		issuer:     iss,
		blockShift: blockShift,
		Enabled:    true,
	}
}

// Name implements memsys.Prefetcher.
func (p *Prefetcher) Name() string { return "markov" }

// Source implements memsys.Prefetcher.
func (p *Prefetcher) Source() prefetch.Source { return prefetch.SrcMarkov }

// Level implements prefetch.Throttleable.
func (p *Prefetcher) Level() prefetch.AggLevel { return p.level }

// SetLevel implements prefetch.Throttleable; the level selects how many of
// the recorded successors are prefetched (1, 2, 3, 4).
func (p *Prefetcher) SetLevel(l prefetch.AggLevel) { p.level = l.Clamp() }

func (p *Prefetcher) slot(key uint32) *entry {
	if i, ok := p.index[key]; ok {
		return &p.entries[i]
	}
	// CLOCK-style eviction: advance past recently used entries.
	for {
		e := &p.entries[p.clock]
		if e.key != 0 && e.used {
			e.used = false
			p.clock = (p.clock + 1) % len(p.entries)
			continue
		}
		if e.key != 0 {
			delete(p.index, e.key)
		}
		*e = entry{key: key}
		p.index[key] = p.clock
		p.clock = (p.clock + 1) % len(p.entries)
		return e
	}
}

// The prefetcher trains on demand accesses and ignores block contents.
var _ memsys.AccessObserver = (*Prefetcher)(nil)

// OnAccess trains on the L2 demand miss stream and prefetches the recorded
// successors of the current miss address.
func (p *Prefetcher) OnAccess(ev memsys.AccessEvent) {
	if !ev.Miss() {
		return
	}
	blk := (ev.Addr >> p.blockShift) << p.blockShift
	// Train: record blk as a successor of the previous miss.
	if p.havePrev && p.prevMiss != blk {
		e := p.slot(p.prevMiss)
		e.used = true
		// Insert MRU, deduplicating.
		pos := successors - 1
		for i, s := range e.next {
			if s == blk {
				pos = i
				break
			}
		}
		copy(e.next[1:pos+1], e.next[0:pos])
		e.next[0] = blk
	}
	p.prevMiss = blk
	p.havePrev = true

	// Predict: prefetch the successors of the current miss.
	if !p.Enabled {
		return
	}
	i, ok := p.index[blk]
	if !ok {
		return
	}
	e := &p.entries[i]
	e.used = true
	degree := int(p.level) + 1
	for k := 0; k < successors && k < degree; k++ {
		if e.next[k] == 0 {
			break
		}
		p.issuer.Issue(prefetch.Request{
			When: ev.Now,
			Addr: e.next[k],
			Src:  prefetch.SrcMarkov,
		})
	}
}
