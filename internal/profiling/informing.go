package profiling

import (
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/trace"
)

// CollectInforming implements the paper's second profiling alternative
// (Section 3, "Profiling Implementation"): instead of simulating the cache
// hierarchy offline with oracle observability, the target machine exposes
// *informing load operations* — each load reports whether it hit and whether
// the hit was due to a prefetch — and the profiling software reconstructs
// pointer-group usefulness itself:
//
//   - On every demand-missing load, the software scans the fetched block
//     image exactly as the content-directed prefetcher would (it knows the
//     pointer layout) and records, in a bounded software table, which block
//     each pointer group would have prefetched.
//   - When a later load reports "hit due to prefetch" on a recorded block,
//     the owning PG is credited useful.
//   - Entries that age out of the bounded table unconsumed are useless.
//
// No simulator-internal hooks (eviction callbacks, PG-tagged cache lines)
// are used — only information a real machine with informing loads provides.
func CollectInforming(tr *trace.Trace, mcfg memsys.Config, ccfg cpu.Config) *Profile {
	ms := newStack(tr, mcfg)
	obs := newInformingObserver(mcfg.BlockSize)
	ms.Attach(obs)
	cpu.Run(ccfg, ms, tr)
	obs.drain()
	return &Profile{PGs: obs.pgs}
}

// informingObserver is the "profiling software": it watches the informing
// load stream and maintains the software candidate table.
type informingObserver struct {
	pgs        map[prefetch.PGKey]PGStats
	candidates map[uint32]prefetch.PGKey // predicted block -> owning PG
	ring       []uint32                  // FIFO aging of candidates
	pos        int
	blockWords int
	blockSize  uint32
}

// informingTableSize bounds the software candidate table; entries aging out
// unconsumed count as useless, mirroring a block's finite cache residency.
const informingTableSize = 16384

func newInformingObserver(blockSize int) *informingObserver {
	return &informingObserver{
		pgs:        make(map[prefetch.PGKey]PGStats),
		candidates: make(map[uint32]prefetch.PGKey),
		ring:       make([]uint32, informingTableSize),
		blockWords: blockSize / 4,
		blockSize:  uint32(blockSize),
	}
}

// Name implements memsys.Prefetcher (the observer issues nothing).
func (o *informingObserver) Name() string            { return "informing-profiler" }
func (o *informingObserver) Source() prefetch.Source { return prefetch.SrcDemand }

func (o *informingObserver) record(blk uint32, pg prefetch.PGKey) {
	if old := o.ring[o.pos]; old != 0 {
		if oldPG, ok := o.candidates[old]; ok {
			s := o.pgs[oldPG]
			s.Useless++
			o.pgs[oldPG] = s
			delete(o.candidates, old)
		}
	}
	o.ring[o.pos] = blk
	o.pos = (o.pos + 1) % len(o.ring)
	o.candidates[blk] = pg
}

// The profiler reads both the fills and the informing-load outcomes.
var (
	_ memsys.FillObserver   = (*informingObserver)(nil)
	_ memsys.AccessObserver = (*informingObserver)(nil)
)

// OnFill scans demand-fetched blocks just as the CDP hardware would,
// predicting which blocks each pointer group will cause to be prefetched.
func (o *informingObserver) OnFill(ev memsys.FillEvent) {
	if ev.Cause != prefetch.SrcDemand || !ev.TriggerIsLoad {
		return
	}
	anchor := ev.TriggerOff / 4
	top := ev.BlockAddr >> 24
	for w := 0; w < o.blockWords && w*4 < len(ev.Data); w++ {
		i := w * 4
		v := uint32(ev.Data[i]) | uint32(ev.Data[i+1])<<8 |
			uint32(ev.Data[i+2])<<16 | uint32(ev.Data[i+3])<<24
		if v>>24 != top {
			continue // fails the 8-bit compare-bits test
		}
		blk := v &^ (o.blockSize - 1)
		if blk == ev.BlockAddr {
			continue // self-pointing: never a distinct prefetch
		}
		if _, dup := o.candidates[blk]; dup {
			continue
		}
		o.record(blk, prefetch.MakePGKey(ev.TriggerPC, w-anchor))
	}
}

// OnAccess consumes the informing-load outcome stream.
func (o *informingObserver) OnAccess(ev memsys.AccessEvent) {
	if !ev.IsLoad || !ev.HitPrefetchSrc.IsPrefetch() {
		return
	}
	blk := ev.Addr &^ (o.blockSize - 1)
	if pg, ok := o.candidates[blk]; ok {
		s := o.pgs[pg]
		s.Useful++
		o.pgs[pg] = s
		delete(o.candidates, blk)
	}
}

// drain resolves all still-pending candidates as useless (end of run).
func (o *informingObserver) drain() {
	//ldslint:ordered commutative Useless increments per PG; order-independent
	for _, pg := range o.candidates {
		s := o.pgs[pg]
		s.Useless++
		o.pgs[pg] = s
	}
	o.candidates = map[uint32]prefetch.PGKey{}
}
