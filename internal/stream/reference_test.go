package stream

import (
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

// refPrefetcher is the stream table as a slice of entries searched by linear
// first-match scans, one per state. It is the reference model the bitmask
// table in stream.go must reproduce exactly (FuzzStreamTable).
type refPrefetcher struct {
	entries    []refEntry
	level      prefetch.AggLevel
	issuer     prefetch.Issuer
	blockShift uint
	tick       uint64
	enabled    bool
}

type refEntry struct {
	state      state
	dir        int32
	firstBlk   uint32
	lastDemand uint32
	nextPf     uint32
	lru        uint64
}

func newRef(blockShift uint, iss prefetch.Issuer) *refPrefetcher {
	return &refPrefetcher{
		entries:    make([]refEntry, numEntries),
		level:      prefetch.Aggressive,
		issuer:     iss,
		blockShift: blockShift,
		enabled:    true,
	}
}

func (p *refPrefetcher) SetLevel(l prefetch.AggLevel) { p.level = l.Clamp() }

func (p *refPrefetcher) SetEnabled(on bool) { p.enabled = on }

func (p *refPrefetcher) OnAccess(ev memsys.AccessEvent) {
	if ev.L1Hit {
		return
	}
	blk := ev.Addr >> p.blockShift

	if e := p.match(blk, monitoring); e != nil {
		p.touch(e)
		if delta(blk, e.lastDemand)*e.dir > 0 {
			e.lastDemand = blk
		}
		p.request(e, ev.Now)
		return
	}
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
			e.state = monitoring
			e.lastDemand = blk
			e.nextPf = addBlk(blk, e.dir)
			p.request(e, ev.Now)
		} else {
			e.dir = dir
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
	*victim = refEntry{state: allocated, firstBlk: blk, lastDemand: blk}
	p.touch(victim)
}

func (p *refPrefetcher) match(blk uint32, st state) *refEntry {
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

func (p *refPrefetcher) touch(e *refEntry) {
	p.tick++
	e.lru = p.tick
}

func (p *refPrefetcher) request(e *refEntry, now int64) {
	if !p.enabled {
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
