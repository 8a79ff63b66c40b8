// Package ghb implements the global-history-buffer delta-correlation
// prefetcher baseline (Nesbit & Smith, HPCA 2004; "G/DC") compared against
// in paper Section 6.3: a 1k-entry FIFO of global L2 miss addresses, linked
// by an index table keyed on the last two address deltas. On a miss, the
// most recent previous occurrence of the current delta pair is located and
// the deltas that followed it are replayed to generate prefetch addresses.
// G/DC captures both stride and correlation patterns, which is why the paper
// runs it without the stream prefetcher.
package ghb

import (
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

type histEntry struct {
	addr uint32
	prev int32 // index of previous entry with the same delta-pair key
	seq  int64 // monotonic sequence number to detect overwritten links
}

// Prefetcher is a G/DC global-history-buffer prefetcher.
type Prefetcher struct {
	buf        []histEntry
	head       int
	seq        int64
	index      map[uint64]int32 // delta pair -> most recent GHB index
	indexSeq   map[uint64]int64
	lastAddr   uint32
	lastDelta  int32
	warm       int
	level      prefetch.AggLevel
	issuer     prefetch.Issuer
	blockShift uint
	// Enabled gates prefetch issue.
	Enabled bool
}

// New builds a G/DC prefetcher with an n-entry history buffer
// (paper: 1k entries, 12 KB).
func New(n int, blockShift uint, iss prefetch.Issuer) *Prefetcher {
	if n <= 0 {
		n = 1024
	}
	return &Prefetcher{
		buf:        make([]histEntry, n),
		index:      make(map[uint64]int32),
		indexSeq:   make(map[uint64]int64),
		level:      prefetch.Aggressive,
		issuer:     iss,
		blockShift: blockShift,
		Enabled:    true,
	}
}

// Name implements memsys.Prefetcher.
func (p *Prefetcher) Name() string { return "ghb" }

// Source implements memsys.Prefetcher.
func (p *Prefetcher) Source() prefetch.Source { return prefetch.SrcGHB }

// Level implements prefetch.Throttleable.
func (p *Prefetcher) Level() prefetch.AggLevel { return p.level }

// SetLevel implements prefetch.Throttleable; the level selects the prefetch
// degree (1, 2, 3, 4).
func (p *Prefetcher) SetLevel(l prefetch.AggLevel) { p.level = l.Clamp() }

func key(d0, d1 int32) uint64 { return uint64(uint32(d0))<<32 | uint64(uint32(d1)) }

// The prefetcher trains on demand accesses and ignores block contents.
var _ memsys.AccessObserver = (*Prefetcher)(nil)

// OnAccess trains on the L2 demand miss stream and issues delta-correlated
// prefetches.
func (p *Prefetcher) OnAccess(ev memsys.AccessEvent) {
	if !ev.Miss() {
		return
	}
	blk := ev.Addr >> p.blockShift
	delta := int32(blk - p.lastAddr)
	if p.warm >= 1 && delta == 0 {
		return
	}
	defer func() { p.lastAddr = blk }()
	if p.warm < 2 {
		p.warm++
		p.lastDelta = delta
		return
	}
	k := key(p.lastDelta, delta)

	// Append to the GHB, linking to the previous occurrence of this key.
	idx := int32(p.head)
	prev := int32(-1)
	if pi, ok := p.index[k]; ok && p.buf[pi].seq == p.indexSeq[k] {
		prev = pi
	}
	p.seq++
	p.buf[p.head] = histEntry{addr: blk, prev: prev, seq: p.seq}
	p.index[k] = idx
	p.indexSeq[k] = p.seq
	p.head = (p.head + 1) % len(p.buf)
	p.lastDelta = delta

	if !p.Enabled || prev < 0 {
		return
	}
	// Collect the delta sequence that followed the previous occurrence of
	// this delta pair (up to the current entry, skipping overwritten
	// history via sequence numbers), then replay it cyclically up to the
	// aggressiveness-controlled degree — for a plain stride the sequence
	// is a single delta and the replay extrapolates the stride.
	degree := int(p.level) + 1
	var deltas []int32
	cur := p.buf[prev].addr
	prevSeq := p.buf[prev].seq
	for j := 1; len(deltas) < 8; j++ {
		ni := (int(prev) + j) % len(p.buf)
		e := p.buf[ni]
		if e.seq != prevSeq+int64(j) || e.seq >= p.seq {
			break // overwritten history or reached the current entry
		}
		deltas = append(deltas, int32(e.addr-cur))
		cur = e.addr
	}
	if len(deltas) == 0 {
		// Adjacent occurrence (steady pattern): replay the matched pair.
		deltas = []int32{p.lastDelta}
	}
	target := blk
	for j := 0; j < degree; j++ {
		target = uint32(int32(target) + deltas[j%len(deltas)])
		p.issuer.Issue(prefetch.Request{
			When: ev.Now,
			Addr: target << p.blockShift,
			Src:  prefetch.SrcGHB,
		})
	}
}
