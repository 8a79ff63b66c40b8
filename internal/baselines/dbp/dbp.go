// Package dbp implements the dependence-based prefetcher baseline (Roth,
// Moshovos & Sohi, ASPLOS 1998) compared against in paper Section 6.3: a
// potential-producer window (PPW) records recently loaded values; when a
// later load's address matches a recorded value plus a small offset, a
// producer→consumer correlation is learned. Thereafter, whenever the
// producer load retires, the consumer's address is predicted from its value
// and prefetched. As the paper notes, DBP runs only one dependence step
// ahead of the program, limiting how much latency it can hide.
package dbp

import (
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

const maxOffset = 60 // base+offset window for producer matching (bytes)

type ppwEntry struct {
	value uint32
	pc    uint32
}

type corr struct {
	offset uint32
	used   bool
}

// Prefetcher is a dependence-based prefetcher.
type Prefetcher struct {
	ppw     []ppwEntry
	ppwHead int
	ppwLen  int

	table     map[uint32]corr // producer PC -> consumer offset
	tableCap  int
	clockKeys []uint32
	clockPos  int

	// mm is the core's memory image, read for each load's value.
	mm     *mem.Memory
	issuer prefetch.Issuer
	level  prefetch.AggLevel
	// Enabled gates prefetch issue.
	Enabled bool
}

// New builds a DBP with the paper's sizing: a ppwSize-entry potential
// producer window (128) and a tableCap-entry correlation table (256),
// ≈3 KB total. mm is the core's memory image: OnAccess reads each load's
// value from it, which sees exactly what the load returns because no store
// runs between the load's access and its OnAccess.
func New(ppwSize, tableCap int, mm *mem.Memory, iss prefetch.Issuer) *Prefetcher {
	if ppwSize <= 0 {
		ppwSize = 128
	}
	if tableCap <= 0 {
		tableCap = 256
	}
	return &Prefetcher{
		ppw:      make([]ppwEntry, ppwSize),
		table:    make(map[uint32]corr, tableCap),
		tableCap: tableCap,
		mm:       mm,
		issuer:   iss,
		level:    prefetch.Aggressive,
		Enabled:  true,
	}
}

// Name implements memsys.Prefetcher.
func (p *Prefetcher) Name() string { return "dbp" }

// Source implements memsys.Prefetcher.
func (p *Prefetcher) Source() prefetch.Source { return prefetch.SrcDBP }

// Level implements prefetch.Throttleable (DBP has no natural aggressiveness
// knob; the level gates whether unconfirmed correlations may prefetch).
func (p *Prefetcher) Level() prefetch.AggLevel { return p.level }

// SetLevel implements prefetch.Throttleable.
func (p *Prefetcher) SetLevel(l prefetch.AggLevel) { p.level = l.Clamp() }

func (p *Prefetcher) insertCorr(producer uint32, c corr) {
	if _, ok := p.table[producer]; !ok && len(p.table) >= p.tableCap {
		// Evict in insertion order (the keys ring tracks residents).
		for {
			victim := p.clockKeys[p.clockPos%len(p.clockKeys)]
			p.clockPos++
			if _, ok := p.table[victim]; ok {
				delete(p.table, victim)
				break
			}
		}
	}
	if _, ok := p.table[producer]; !ok {
		p.clockKeys = append(p.clockKeys, producer)
		if len(p.clockKeys) > 4*p.tableCap {
			// Compact the ring occasionally.
			live := p.clockKeys[:0]
			for _, k := range p.clockKeys {
				if _, ok := p.table[k]; ok {
					live = append(live, k)
				}
			}
			p.clockKeys = live
			p.clockPos = 0
		}
	}
	p.table[producer] = c
}

// The prefetcher trains on demand accesses, L1 hits included, and ignores
// block contents.
var _ memsys.L1HitObserver = (*Prefetcher)(nil)

// ObservesL1Hits implements memsys.L1HitObserver: the PPW learns from every
// load, wherever it hits.
func (p *Prefetcher) ObservesL1Hits() {}

// OnAccess observes every demand load: it learns producer→consumer
// correlations through the PPW and issues a one-step-ahead prefetch when a
// known producer loads a pointer value.
func (p *Prefetcher) OnAccess(ev memsys.AccessEvent) {
	if !ev.IsLoad {
		return
	}
	value := p.mm.Read32(ev.Addr)
	// Learn: does this load's address match a recently loaded value?
	// Self-correlation (producer PC == consumer PC) is the linked-list
	// walk pattern and is explicitly allowed; a load cannot match its own
	// dynamic instance because it is recorded only after this search.
	for i := 0; i < p.ppwLen; i++ {
		e := &p.ppw[(p.ppwHead-1-i+len(p.ppw)*2)%len(p.ppw)]
		if e.value == 0 {
			continue
		}
		if d := ev.Addr - e.value; d <= maxOffset {
			p.insertCorr(e.pc, corr{offset: d, used: true})
			break
		}
	}
	// Record this load as a potential producer (pointer-looking values
	// only; small integers cannot be addresses).
	if value != 0 {
		p.ppw[p.ppwHead] = ppwEntry{value: value, pc: ev.PC}
		p.ppwHead = (p.ppwHead + 1) % len(p.ppw)
		if p.ppwLen < len(p.ppw) {
			p.ppwLen++
		}
	}
	// Predict: if this PC is a known producer, prefetch what its value
	// points to — no earlier than the value physically arrives (the
	// load's completion), which is what limits how far ahead DBP can run
	// (the paper's criticism of dependence-based prefetching).
	if !p.Enabled || value == 0 {
		return
	}
	if c, ok := p.table[ev.PC]; ok {
		when := ev.CompleteAt
		if when < ev.Now {
			when = ev.Now
		}
		p.issuer.Issue(prefetch.Request{
			When: when,
			Addr: value + c.offset,
			Src:  prefetch.SrcDBP,
		})
	}
}
