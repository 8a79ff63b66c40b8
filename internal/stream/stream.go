// Package stream implements the paper's baseline stream prefetcher, modelled
// on the IBM POWER4/POWER5 design as used by Srinath et al. (HPCA 2007) and
// this paper's Section 2.1: 32 stream-tracking entries trained by L2 demand
// misses, each progressing through allocation → direction training →
// monitor-and-request, issuing Degree prefetches at a time up to Distance
// blocks ahead of the demand stream. Distance and Degree scale with the
// aggressiveness level (paper Table 2).
package stream

import (
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

const trainWindow = 16 // blocks within which a miss trains an entry

type state uint8

const (
	invalid state = iota
	allocated
	training
	monitoring
)

type entry struct {
	state      state
	dir        int32  // +1 or -1 (block granularity)
	firstBlk   uint32 // block of the allocating miss
	lastDemand uint32 // most recent demand block attributed to the stream
	nextPf     uint32 // next block to prefetch
	lru        uint64
}

// Prefetcher is a stream prefetcher instance for one core.
type Prefetcher struct {
	entries    []entry
	level      prefetch.AggLevel
	issuer     prefetch.Issuer
	blockShift uint
	tick       uint64
	// Enabled gates prefetch issue (PAB baseline turns prefetchers off).
	Enabled bool
}

// New builds a stream prefetcher with n tracking entries (32 in the paper)
// issuing through iss. blockShift is log2 of the cache block size.
func New(n int, blockShift uint, iss prefetch.Issuer) *Prefetcher {
	if n <= 0 {
		n = 32
	}
	return &Prefetcher{
		entries:    make([]entry, n),
		level:      prefetch.Aggressive,
		issuer:     iss,
		blockShift: blockShift,
		Enabled:    true,
	}
}

// Name implements memsys.Prefetcher.
func (p *Prefetcher) Name() string { return "stream" }

// Source implements memsys.Prefetcher.
func (p *Prefetcher) Source() prefetch.Source { return prefetch.SrcStream }

// Level implements prefetch.Throttleable.
func (p *Prefetcher) Level() prefetch.AggLevel { return p.level }

// SetLevel implements prefetch.Throttleable.
func (p *Prefetcher) SetLevel(l prefetch.AggLevel) { p.level = l.Clamp() }

// SetEnabled turns prefetch issue on or off (PAB baseline support).
func (p *Prefetcher) SetEnabled(on bool) { p.Enabled = on }

// The prefetcher trains on demand accesses and ignores block contents.
var _ memsys.AccessObserver = (*Prefetcher)(nil)

// OnAccess trains the stream table. Demand L2 misses allocate and train
// streams; demand accesses inside a monitored region advance it.
func (p *Prefetcher) OnAccess(ev memsys.AccessEvent) {
	if ev.L1Hit {
		return
	}
	blk := ev.Addr >> p.blockShift

	// 1. Advance a monitoring stream that covers this block.
	if e := p.match(blk, monitoring); e != nil {
		p.touch(e)
		if delta(blk, e.lastDemand)*e.dir > 0 {
			e.lastDemand = blk
		}
		p.request(e, ev.Now)
		return
	}
	// Training and allocation act on misses only.
	if !ev.Miss() {
		return
	}
	if e := p.match(blk, training); e != nil {
		p.touch(e)
		d := delta(blk, e.firstBlk)
		if d == 0 {
			return
		}
		dir := int32(1)
		if d < 0 {
			dir = -1
		}
		if dir == e.dir {
			// Second confirming miss: start monitoring.
			e.state = monitoring
			e.lastDemand = blk
			e.nextPf = addBlk(blk, e.dir)
			p.request(e, ev.Now)
		} else {
			e.dir = dir // re-learn direction
		}
		return
	}
	if e := p.match(blk, allocated); e != nil {
		p.touch(e)
		d := delta(blk, e.firstBlk)
		if d == 0 {
			return
		}
		e.state = training
		if d > 0 {
			e.dir = 1
		} else {
			e.dir = -1
		}
		return
	}
	// Allocate a new stream on an unmatched miss, replacing the LRU entry.
	victim := &p.entries[0]
	for i := range p.entries {
		e := &p.entries[i]
		if e.state == invalid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = entry{state: allocated, firstBlk: blk, lastDemand: blk}
	p.touch(victim)
}

// match finds an entry in the given state whose tracked region covers blk.
func (p *Prefetcher) match(blk uint32, st state) *entry {
	for i := range p.entries {
		e := &p.entries[i]
		if e.state != st {
			continue
		}
		var ref uint32
		switch st {
		case monitoring:
			ref = e.lastDemand
		default:
			ref = e.firstBlk
		}
		d := delta(blk, ref)
		if d < 0 {
			d = -d
		}
		if d <= trainWindow {
			return e
		}
	}
	return nil
}

func (p *Prefetcher) touch(e *entry) {
	p.tick++
	e.lru = p.tick
}

// request issues up to Degree prefetches, keeping nextPf within Distance
// blocks of the demand stream.
func (p *Prefetcher) request(e *entry, now int64) {
	if !p.Enabled {
		return
	}
	distance, degree := prefetch.StreamParams(p.level)
	issued := 0
	for issued < degree {
		ahead := delta(e.nextPf, e.lastDemand) * e.dir
		if ahead > int32(distance) {
			break
		}
		if ahead > 0 {
			p.issuer.Issue(prefetch.Request{
				When: now,
				Addr: e.nextPf << p.blockShift,
				Src:  prefetch.SrcStream,
			})
			issued++
		}
		e.nextPf = addBlk(e.nextPf, e.dir)
	}
}

func delta(a, b uint32) int32 { return int32(a - b) }

func addBlk(b uint32, dir int32) uint32 { return uint32(int32(b) + dir) }
