// Package stream implements the paper's baseline stream prefetcher, modelled
// on the IBM POWER4/POWER5 design as used by Srinath et al. (HPCA 2007) and
// this paper's Section 2.1: 32 stream-tracking entries trained by L2 demand
// misses, each progressing through allocation → direction training →
// monitor-and-request, issuing Degree prefetches at a time up to Distance
// blocks ahead of the demand stream. Distance and Degree scale with the
// aggressiveness level (paper Table 2).
//
// The table is searched on every access that reaches the L2, so it is kept
// as bitmasks: one mask per state, and one branch-free pass that builds the
// mask of entries whose region covers the block. Each search is then a
// trailing-zero count, which picks the lowest-index match — the entry a
// first-match linear scan would find.
package stream

import (
	"math/bits"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

const (
	numEntries  = 32 // stream-tracking entries (paper Section 2.1)
	trainWindow = 16 // blocks within which a miss trains an entry
)

type state uint8

const (
	invalid state = iota
	allocated
	training
	monitoring
	numStates
)

type entry struct {
	state  state
	dir    int32  // +1 or -1 (block granularity)
	nextPf uint32 // next block to prefetch
}

// Prefetcher is a stream prefetcher instance for one core.
type Prefetcher struct {
	entries [numEntries]entry
	// ref is each entry's region anchor: the block of the allocating miss
	// until the stream monitors, then the most recent demand block
	// attributed to it.
	ref [numEntries]uint32
	lru [numEntries]uint64
	// in[s] has bit i set when entries[i] is in state s (see setState).
	in [numStates]uint32

	level      prefetch.AggLevel
	issuer     prefetch.Issuer
	blockShift uint
	tick       uint64
	// Enabled gates prefetch issue (PAB baseline turns prefetchers off).
	Enabled bool
}

// New builds a stream prefetcher with the paper's 32 tracking entries,
// issuing through iss. blockShift is log2 of the cache block size.
func New(blockShift uint, iss prefetch.Issuer) *Prefetcher {
	p := &Prefetcher{
		level:      prefetch.Aggressive,
		issuer:     iss,
		blockShift: blockShift,
		Enabled:    true,
	}
	p.in[invalid] = 1<<numEntries - 1
	return p
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
	near := p.near(blk)

	// 1. Advance a monitoring stream that covers this block.
	if m := near & p.in[monitoring]; m != 0 {
		i := bits.TrailingZeros32(m)
		p.touch(i)
		if delta(blk, p.ref[i])*p.entries[i].dir > 0 {
			p.ref[i] = blk
		}
		p.request(i, ev.Now)
		return
	}
	// Training and allocation act on misses only.
	if !ev.Miss() {
		return
	}
	if m := near & p.in[training]; m != 0 {
		i := bits.TrailingZeros32(m)
		e := &p.entries[i]
		p.touch(i)
		d := delta(blk, p.ref[i])
		if d == 0 {
			return
		}
		dir := int32(1)
		if d < 0 {
			dir = -1
		}
		if dir == e.dir {
			// Second confirming miss: start monitoring.
			p.setState(i, monitoring)
			p.ref[i] = blk
			e.nextPf = addBlk(blk, e.dir)
			p.request(i, ev.Now)
		} else {
			e.dir = dir // re-learn direction
		}
		return
	}
	if m := near & p.in[allocated]; m != 0 {
		i := bits.TrailingZeros32(m)
		e := &p.entries[i]
		p.touch(i)
		d := delta(blk, p.ref[i])
		if d == 0 {
			return
		}
		p.setState(i, training)
		if d > 0 {
			e.dir = 1
		} else {
			e.dir = -1
		}
		return
	}
	// Allocate a new stream on an unmatched miss: the first invalid entry,
	// or else the least recently used one. Entries never return to
	// invalid, and every valid entry's lru is distinct.
	var i int
	if free := p.in[invalid]; free != 0 {
		i = bits.TrailingZeros32(free)
	} else {
		for j := 1; j < numEntries; j++ {
			if p.lru[j] < p.lru[i] {
				i = j
			}
		}
	}
	p.setState(i, allocated)
	p.entries[i] = entry{state: allocated}
	p.ref[i] = blk
	p.touch(i)
}

// near returns the mask of entries whose ref lies within trainWindow blocks
// of blk, in either direction, whatever their state. |blk-ref| ≤ trainWindow
// is blk-ref+trainWindow ≤ 2·trainWindow in wrapping uint32 arithmetic, so
// one subtraction's borrow decides each bit without a branch. A signed
// distance with negation would also accept blk-ref = 2^31, whose negation
// overflows to itself; near rejects it. Such a pair is 2^31 blocks apart,
// which 32-bit addresses reach only with one-byte blocks (blockShift 0).
func (p *Prefetcher) near(blk uint32) uint32 {
	var m uint32
	for i, r := range p.ref {
		x := uint64(blk - r + trainWindow)
		m |= uint32((x-(2*trainWindow+1))>>63) << i
	}
	return m
}

// setState moves entry i to state st, keeping the state masks in step.
func (p *Prefetcher) setState(i int, st state) {
	bit := uint32(1) << i
	p.in[p.entries[i].state] &^= bit
	p.in[st] |= bit
	p.entries[i].state = st
}

func (p *Prefetcher) touch(i int) {
	p.tick++
	p.lru[i] = p.tick
}

// request issues up to Degree prefetches for entry i, keeping nextPf within
// Distance blocks of the demand stream.
func (p *Prefetcher) request(i int, now int64) {
	if !p.Enabled {
		return
	}
	e := &p.entries[i]
	distance, degree := prefetch.StreamParams(p.level)
	issued := 0
	for issued < degree {
		ahead := delta(e.nextPf, p.ref[i]) * e.dir
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
