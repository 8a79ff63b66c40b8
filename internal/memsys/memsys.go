// Package memsys wires the simulated memory hierarchy together: an L1 data
// cache, an L2 (last-level) cache with MSHRs, a shared DRAM controller, the
// prefetcher attachment points, and the run-time feedback counters of paper
// Section 4.1.
//
// # Timing model
//
// The hierarchy is timestamp-based. A demand access arrives with the cycle
// it executes; the access walks L1 → L2 → DRAM and returns the cycle its
// data is available. Fills are applied to the tag stores eagerly — a line is
// inserted when its request is created, carrying a ReadyAt timestamp — so a
// later access that finds a line with ReadyAt in the future has merged with
// an in-flight fill (for prefetched lines, that is a *late* prefetch). This
// eager-fill approximation slightly advances evictions in time but preserves
// the phenomena the paper studies: late prefetches, cache pollution by
// useless prefetches, MSHR/request-buffer/bank/bus contention.
//
// # Resource limits
//
// L2 MSHRs (32) bound outstanding demand misses: a demand miss finding all
// MSHRs busy waits for the earliest outstanding fill. The per-core prefetch
// request queue (128) bounds outstanding prefetches: excess prefetches are
// dropped, never stalled. The DRAM request buffer (32 × cores, in
// internal/dram) backpressures both.
//
// # Telemetry gauges
//
// MSHROccupancyAt and PFQueueOccupancyAt report how many MSHR / prefetch
// queue entries are still outstanding at a given cycle. The simulation's own
// heaps are never perturbed by telemetry reads (timestamps are not monotone
// under the dependence-graph CPU model, making destructive reads of them
// unsafe): when tracing is enabled (EnableOccupancyGauges), dedicated gauge
// heaps record every fill completion and are retired incrementally at each
// query — telemetry queries come from interval boundaries, whose timestamps
// (Feedback.LastEvictionAt) are monotone — so each query costs O(log n)
// amortized instead of an O(n) scan. Without tracing the gauges are off and
// the occupancy calls fall back to a non-destructive scan. Interval
// boundaries reach the feedback unit through Feedback.EvictionAt with the
// eviction's cycle, which timestamps each telemetry.IntervalRecord.
//
// # Prefetcher hooks
//
// Attach takes any Prefetcher and subscribes it to the events its optional
// hooks observe: AccessObserver for demand accesses (stream, GHB, Markov,
// DBP), FillObserver for the contents of filled blocks (CDP, the
// informing-load profiler). Block contents are read from the memory image
// only when at least one FillObserver is attached, so a configuration with
// no content scanner pays for no block copies.
//
// # Prefetch lifecycle
//
// A prefetch that Issue accepts increments its source's Issued and is
// installed in the L2. It then ends one of two ways, each at one site:
// consume, its first demand use, increments Used (and Late when the fill
// is still in flight) and emits PrefetchUsed; discard, its eviction unused
// or its residence unused at FlushAccounting, increments
// Stats.UselessEvicted and emits PrefetchUseless. Every issued L2 prefetch
// thus ends as exactly one of Used and UselessEvicted. The NoPollution side
// buffer has two gaps that ROADMAP item 6 closes: a side-buffer hit counts
// in no Stats outcome counter, and leftover side-buffer blocks emit
// PrefetchUseless without counting in UselessEvicted.
//
// ObserveOutcomes subscribes a function to prefetch outcomes (OutcomeEvent):
// a prefetched block used or left unused, a block displaced by a prefetch
// fill, and an L2 demand miss. The pointer-group profiler, the hardware
// prefetch filter and FDP read them; FDP, not the memory system, decides
// which demand misses count as pollution.
package memsys

import (
	"fmt"
	"sort"

	"ldsprefetch/internal/cache"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/heap64"
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/prefetch"
)

// Config parameterizes one core's cache hierarchy (paper Table 5 defaults).
type Config struct {
	BlockSize int

	L1Size int
	L1Ways int
	L1Lat  int64

	L2Size int
	L2Ways int
	L2Lat  int64

	// MSHRs bounds outstanding L2 demand misses.
	MSHRs int
	// PrefetchQueue bounds outstanding prefetch requests per core.
	PrefetchQueue int
	// PrefetchCongestionLimit drops prefetches when this many of this
	// core's prefetch fills are outstanding — prefetches are the lowest-
	// priority customer of the memory system, and real prefetch queues
	// drop on congestion rather than stall. Keeping the limit below the
	// request-buffer size reserves headroom for demand requests,
	// approximating demand-first scheduling. The zero value (as left by
	// DefaultConfig) selects half the DRAM request buffer; New resolves
	// it via ResolvePrefetchCongestionLimit, so Config() always reports
	// the effective limit.
	PrefetchCongestionLimit int
	// IntervalLen is the feedback interval in L2 evictions (paper: 8192).
	IntervalLen int

	// Cores is the number of cores sharing the DRAM controller; it sizes
	// the fair-share prefetch token bucket (each core gets 1/Cores of the
	// bus rate, see Issue). Values below 1 mean one core. Config() always
	// reports the resolved value.
	Cores int

	// IdealLDS converts L2 misses of LDS-tagged loads into hits (the
	// oracle of Figure 1, bottom).
	IdealLDS bool
	// NoPollution places prefetch fills in an unbounded side buffer instead
	// of the L2, ideally eliminating prefetch-induced pollution (the oracle
	// experiment of Section 2.3).
	NoPollution bool
}

// DefaultConfig returns the paper's baseline core memory configuration.
func DefaultConfig() Config {
	return Config{
		BlockSize:     64,
		L1Size:        32 << 10,
		L1Ways:        4,
		L1Lat:         2,
		L2Size:        1 << 20,
		L2Ways:        8,
		L2Lat:         15,
		MSHRs:         32,
		PrefetchQueue: 128,
		IntervalLen:   8192,
	}
}

// Bounds on Config, so that a configuration from an untrusted source (a
// spec's mem_cfg) cannot make New allocate without limit: each cache's tag
// store holds one line per block of its size, and the content-scan buffer
// one block.
const (
	MaxBlockSize  = 4096
	MaxCacheLines = 1 << 20
)

// Validate checks the allocation bounds: BlockSize at most MaxBlockSize, and
// L1Size and L2Size at most MaxCacheLines blocks each (64 MiB at 64-byte
// blocks). It checks nothing else; New panics on sizes that give no
// power-of-two set count.
func (c Config) Validate() error {
	if c.BlockSize > MaxBlockSize {
		return fmt.Errorf("mem_cfg: BlockSize must be at most %d, got %d", MaxBlockSize, c.BlockSize)
	}
	if c.BlockSize <= 0 {
		return nil // no cache can be built; New's callers reject it
	}
	for _, cs := range []struct {
		name string
		size int
	}{{"L1Size", c.L1Size}, {"L2Size", c.L2Size}} {
		if cs.size/c.BlockSize > MaxCacheLines {
			return fmt.Errorf("mem_cfg: %s must be at most %d blocks (%d bytes), got %d",
				cs.name, MaxCacheLines, MaxCacheLines*c.BlockSize, cs.size)
		}
	}
	return nil
}

// AccessEvent describes one demand access, delivered to every attached
// AccessObserver for training.
type AccessEvent struct {
	// Now is the cycle the access reached the L1.
	Now int64
	// PC is the static instruction address.
	PC uint32
	// Addr is the data address.
	Addr uint32
	// IsLoad distinguishes loads from stores.
	IsLoad bool
	// LDS marks pointer-chasing loads.
	LDS bool
	// L1Hit, L2Hit report where the access hit.
	L1Hit, L2Hit bool
	// InFlight reports a merge with an outstanding fill (secondary miss).
	InFlight bool
	// HitPrefetchSrc identifies the prefetcher whose block this access is
	// the first demand consumer of (SrcDemand otherwise). This is the
	// information an informing load operation exposes to software
	// (Horowitz et al., referenced by the paper's second profiling
	// implementation): whether the load hit, and whether the hit was due
	// to a prefetch.
	HitPrefetchSrc prefetch.Source
	// CompleteAt is the cycle the access's data is available. Prefetchers
	// that consume loaded VALUES (the dependence-based prefetcher) must
	// act no earlier than this — the value physically does not exist
	// before the fill returns.
	CompleteAt int64
}

// Miss reports whether the access missed the whole on-chip hierarchy.
func (e AccessEvent) Miss() bool { return !e.L1Hit && !e.L2Hit && !e.InFlight }

// FillEvent describes a block arriving in the L2, delivered to every attached
// FillObserver: the block-content scanners (CDP, the informing-load
// profiler). A demand miss fills a block; of the prefetch fills, only CDP's
// are delivered, because only CDP recursion scans prefetched blocks. With no
// FillObserver attached the memory system reads no block contents at all.
type FillEvent struct {
	// Now is the cycle the fill completes.
	Now int64
	// BlockAddr is the block-aligned address.
	BlockAddr uint32
	// Data is the block's contents at scan time. It aliases the memory
	// system's single scan buffer, which every content scan overwrites, and
	// a scan can run inside this callback: an Issue of a CDP prefetch runs
	// that block's fill, and its recursive scan, before it returns. Data is
	// therefore valid only until the callback's first Issue; do not retain
	// it. CDP's OnFill reads Data past its Issues (a known defect,
	// EXPERIMENTS.md), so the rest of a demand block's words, and the
	// observers attached after CDP, read another block's bytes.
	Data []byte
	// Cause identifies who requested the block.
	Cause prefetch.Source
	// Depth is the CDP recursion depth of this block (0 for demand).
	Depth uint8
	// PG is the root pointer group (CDP fills).
	PG prefetch.PGKey
	// TriggerPC is the PC of the demand access that missed (demand fills).
	TriggerPC uint32
	// TriggerOff is the byte offset within the block the demand access
	// touched, or -1 for prefetch fills.
	TriggerOff int
	// TriggerIsLoad reports whether the triggering demand was a load.
	TriggerIsLoad bool
}

// OutcomeKind names a prefetch-outcome event.
type OutcomeKind uint8

const (
	// PrefetchUsed: a demand access consumed a prefetched block for the
	// first time (an L2 hit, an in-flight merge or a side-buffer hit).
	PrefetchUsed OutcomeKind = iota
	// PrefetchUseless: a prefetched block was evicted unused, or was left
	// unused at the end of the run (FlushAccounting).
	PrefetchUseless
	// DisplacedByPrefetch: a prefetch fill displaced the block from the L2.
	DisplacedByPrefetch
	// DemandMiss: a demand access missed the L2 and the side buffer. It is
	// delivered before the miss's own fill displaces a victim.
	DemandMiss
)

// OutcomeEvent is one prefetch outcome, delivered to every function
// subscribed with ObserveOutcomes.
type OutcomeEvent struct {
	Kind OutcomeKind
	// BlockAddr is the block-aligned address of the block concerned.
	BlockAddr uint32
	// Src is the prefetcher that fetched the block (PrefetchUsed,
	// PrefetchUseless) or whose fill displaced it (DisplacedByPrefetch);
	// SrcDemand for DemandMiss.
	Src prefetch.Source
	// PG is the root pointer group of a used or useless CDP block, 0
	// otherwise.
	PG prefetch.PGKey
}

// Prefetcher is what every attached prefetcher or observer implements.
// Prefetchers issue requests through the Issuer they were constructed with
// (the MemSys itself). The event hooks are optional: Attach subscribes a
// Prefetcher to demand accesses if it is an AccessObserver and to fills if
// it is a FillObserver, so a prefetcher implements only the hooks it reads.
type Prefetcher interface {
	// Name identifies the prefetcher for reports.
	Name() string
	// Source returns the request source this prefetcher issues as.
	Source() prefetch.Source
}

// AccessObserver is an optional Prefetcher hook that observes every demand
// access (stream, GHB, Markov and DBP train on it).
type AccessObserver interface {
	OnAccess(ev AccessEvent)
}

// FillObserver is an optional Prefetcher hook that observes the contents of
// filled blocks (see FillEvent). Attaching one makes the memory system read
// each delivered block into its scan buffer.
type FillObserver interface {
	OnFill(ev FillEvent)
}

// Stats aggregates per-core memory system statistics.
type Stats struct {
	Accesses         int64
	L1Hits           int64
	L2DemandHits     int64
	L2DemandMisses   int64
	InFlightMerges   int64
	IdealLDSHits     int64
	PrefDropCacheHit int64
	PrefDropQueue    int64
	PrefDropFilter   int64
	Writebacks       int64
	UselessEvicted   [prefetch.NumSources]int64

	// Wrong-path speculation counters (AccessWrongPath; populated only by
	// the speculative ooo core model). They are kept separate from the
	// demand counters above so demand-derived metrics stay comparable
	// across core models, and omitted from serialized results when zero so
	// interval-model result encodings are byte-identical to before the
	// counters existed.
	WrongPathAccesses int64 `json:",omitempty"` // wrong-path loads issued
	WrongPathToDRAM   int64 `json:",omitempty"` // of those, block fetches that went to DRAM
}

type sideLine struct {
	readyAt int64
	pg      prefetch.PGKey
	src     prefetch.Source
}

// MemSys is one core's memory hierarchy attached to a (possibly shared)
// DRAM controller.
type MemSys struct {
	cfg  Config
	mm   *mem.Memory
	l1   *cache.Cache
	l2   *cache.Cache
	ctrl *dram.Controller
	fb   *prefetch.Feedback

	// Attached hooks, each in attach order (see Attach, ObserveOutcomes).
	accessObs  []AccessObserver
	fillObs    []FillObserver
	outcomeObs []func(OutcomeEvent)

	mshr    heap64.Heap // demand-miss fill completions
	pfQueue heap64.Heap // prefetch fill completions

	// Occupancy gauges (telemetry only; see EnableOccupancyGauges). They
	// mirror every fill completion pushed to mshr/pfQueue but are retired
	// only by the monotone telemetry queries, so force-popped entries (an
	// MSHR-full wait consumes the earliest fill before it completes) stay
	// visible until they actually finish.
	gauges    bool
	mshrGauge heap64.Heap
	pfGauge   heap64.Heap

	// Fair-share prefetch rate limiting: each core may inject prefetches
	// at no more than its share of the bus rate (1 block per
	// BusCycles × cores), with a bounded burst. Without this, one core's
	// recursive CDP cascades monopolize the shared low-priority bandwidth
	// and starve other cores' (and its own stream prefetcher's) requests.
	pfTokens    float64
	pfTokenTime int64
	// lastDemand tracks the core's demand clock; prefetch requests
	// timestamped far beyond it are recursion chains that have raced ahead
	// of the program and are dropped (a real prefetch queue would have
	// been overwritten long before such a request could issue).
	lastDemand int64

	sideBuf map[uint32]sideLine // NoPollution oracle

	blockBuf []byte // content-scan buffer, shared by every FillEvent
	stats    Stats

	// FilterPrefetch, if set, gates every prefetch request before issue
	// (hardware prefetch filter / PAB baselines). Return false to drop.
	FilterPrefetch func(r prefetch.Request) bool
}

// ResolvePrefetchCongestionLimit is the single place the congestion limit's
// zero value is interpreted: an explicit positive limit is used unchanged,
// and 0 — the value DefaultConfig leaves and an unset JSON field decodes to —
// selects half the DRAM request buffer, reserving the other half for demand
// requests. Every construction path (sim.Named configurations, specs
// submitted to the job service, the CLIs) funnels through New, which applies
// this resolution, so an explicit 0 and an omitted field always behave
// identically.
func ResolvePrefetchCongestionLimit(limit, requestBuffer int) int {
	if limit > 0 {
		return limit
	}
	if requestBuffer <= 0 {
		// Unbounded request buffer: fall back to half the paper's
		// single-core buffer (32).
		return 16
	}
	return requestBuffer / 2
}

// New builds a core memory system over memory image mm and controller ctrl.
func New(cfg Config, mm *mem.Memory, ctrl *dram.Controller) *MemSys {
	cfg.PrefetchCongestionLimit = ResolvePrefetchCongestionLimit(
		cfg.PrefetchCongestionLimit, ctrl.Config().RequestBuffer)
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	ms := &MemSys{
		cfg:      cfg,
		mm:       mm,
		ctrl:     ctrl,
		l1:       cache.New("L1D", cfg.L1Size, cfg.L1Ways, cfg.BlockSize),
		l2:       cache.New("L2", cfg.L2Size, cfg.L2Ways, cfg.BlockSize),
		fb:       prefetch.NewFeedback(cfg.IntervalLen),
		blockBuf: make([]byte, cfg.BlockSize),
	}
	ms.pfTokens = 32 // fair-share burst allowance (see Issue)
	if cfg.NoPollution {
		ms.sideBuf = make(map[uint32]sideLine)
	}
	return ms
}

// Attach registers a prefetcher for the events its optional hooks observe:
// demand accesses if it is an AccessObserver, fills if it is a
// FillObserver. Each kind of event reaches its observers in attach order.
func (ms *MemSys) Attach(p Prefetcher) {
	if o, ok := p.(AccessObserver); ok {
		ms.accessObs = append(ms.accessObs, o)
	}
	if o, ok := p.(FillObserver); ok {
		ms.fillObs = append(ms.fillObs, o)
	}
}

// ObserveOutcomes subscribes fn to every prefetch outcome (see
// OutcomeEvent). Subscribers receive each event in subscription order.
func (ms *MemSys) ObserveOutcomes(fn func(OutcomeEvent)) {
	ms.outcomeObs = append(ms.outcomeObs, fn)
}

// Feedback returns the run-time feedback counters.
func (ms *MemSys) Feedback() *prefetch.Feedback { return ms.fb }

// Mem returns the memory image.
func (ms *MemSys) Mem() *mem.Memory { return ms.mm }

// Controller returns the DRAM controller.
func (ms *MemSys) Controller() *dram.Controller { return ms.ctrl }

// Stats returns a copy of the accumulated statistics.
func (ms *MemSys) Stats() Stats { return ms.stats }

// Config returns the configuration.
func (ms *MemSys) Config() Config { return ms.cfg }

func (ms *MemSys) notifyAccess(ev AccessEvent) {
	for _, o := range ms.accessObs {
		o.OnAccess(ev)
	}
}

// notifyFill reads blk into the scan buffer and delivers ev, with Data set
// to it, to every fill observer. Callers skip it when none is attached.
func (ms *MemSys) notifyFill(blk uint32, ev FillEvent) {
	ms.mm.ReadBlock(blk, ms.blockBuf)
	ev.BlockAddr = blk
	ev.Data = ms.blockBuf
	for _, o := range ms.fillObs {
		o.OnFill(ev)
	}
}

func (ms *MemSys) notifyOutcome(ev OutcomeEvent) {
	for _, fn := range ms.outcomeObs {
		fn(ev)
	}
}

// handleVictim performs eviction bookkeeping for a displaced L2 line:
// writeback of dirty data, the discard of an unused prefetched block, the
// displacement's outcome event, and the feedback interval tick.
func (ms *MemSys) handleVictim(victim cache.Line, insertedBy prefetch.Source, now int64) {
	vaddr := victim.Tag << ms.l2.BlockShift()
	if victim.Dirty {
		ms.ctrl.Writeback(vaddr, now)
		ms.stats.Writebacks++
	}
	if victim.PrefSrc.IsPrefetch() && !victim.Used {
		ms.discard(victim.PrefSrc, victim.PG, vaddr)
	}
	if insertedBy.IsPrefetch() {
		ms.notifyOutcome(OutcomeEvent{Kind: DisplacedByPrefetch, BlockAddr: vaddr, Src: insertedBy})
	}
	ms.fb.EvictionAt(now)
}

// consume is the first demand use of block blk, prefetched by src and ready
// at readyAt, by a demand that reached the L2 at now. It is the only place
// Used and Late change.
func (ms *MemSys) consume(src prefetch.Source, pg prefetch.PGKey, blk uint32, readyAt, now int64) {
	st := &ms.fb.Sources[src]
	st.Used.Inc()
	if readyAt > now {
		st.Late.Inc()
	}
	ms.notifyOutcome(OutcomeEvent{Kind: PrefetchUsed, BlockAddr: blk, Src: src, PG: pg})
}

// discard is the end of block blk, prefetched by src and never used. It is
// the only place UselessEvicted changes.
func (ms *MemSys) discard(src prefetch.Source, pg prefetch.PGKey, blk uint32) {
	ms.stats.UselessEvicted[src]++
	ms.notifyOutcome(OutcomeEvent{Kind: PrefetchUseless, BlockAddr: blk, Src: src, PG: pg})
}

// install inserts blk, absent from the L2, on behalf of by at cycle at and
// retires the line it displaces. The caller fills in the returned line.
func (ms *MemSys) install(blk uint32, by prefetch.Source, at int64) *cache.Line {
	nl, victim, had := ms.l2.Insert(blk)
	if had {
		ms.handleVictim(victim, by, at)
	}
	return nl
}

// fetch brings blk, absent from the L2, from DRAM at demand priority for a
// request that reached the L2 at t: with all MSHRs busy it first waits for
// the earliest outstanding fill. It returns the installed line, whose
// ReadyAt is the fill's completion.
func (ms *MemSys) fetch(blk uint32, t int64) *cache.Line {
	reqT := t + ms.cfg.L2Lat
	ms.mshr.PopLE(reqT)
	if ms.cfg.MSHRs > 0 && len(ms.mshr) >= ms.cfg.MSHRs {
		reqT = max(reqT, ms.mshr.Pop())
	}
	ready := ms.ctrl.Access(blk, reqT, true)
	ms.mshr.Push(ready)
	if ms.gauges {
		ms.mshrGauge.Push(ready)
	}
	nl := ms.install(blk, prefetch.SrcDemand, reqT)
	nl.Used = true
	nl.ReadyAt = ready
	nl.IssuedAt = reqT
	return nl
}

// Access performs one demand access at cycle now and returns the cycle the
// data is available to the core. Stores use the same path for timing but the
// CPU does not wait on the returned time for them.
func (ms *MemSys) Access(addr, pc uint32, isLoad, lds bool, now int64) int64 {
	ms.stats.Accesses++
	if now > ms.lastDemand {
		ms.lastDemand = now
	}
	ev := AccessEvent{Now: now, PC: pc, Addr: addr, IsLoad: isLoad, LDS: lds}
	blk := ms.l2.BlockAddr(addr)

	// L1.
	if l := ms.l1.Lookup(addr, true); l != nil {
		ms.stats.L1Hits++
		ev.L1Hit = true
		complete := max(now, l.ReadyAt) + ms.cfg.L1Lat
		ev.CompleteAt = complete
		ms.notifyAccess(ev)
		if !isLoad {
			l.Dirty = true
			if l2l := ms.l2.Lookup(addr, false); l2l != nil {
				l2l.Dirty = true
			}
		}
		return complete
	}
	t2 := now + ms.cfg.L1Lat

	var l *cache.Line
	var complete int64
	fetched := false
	if l = ms.l2.Lookup(addr, true); l != nil {
		// L2 hit, or a merge with an in-flight fill.
		firstUse := l.PrefSrc.IsPrefetch() && !l.Used
		if firstUse {
			ev.HitPrefetchSrc = l.PrefSrc
		}
		if l.ReadyAt > t2 {
			ms.stats.InFlightMerges++
			ev.InFlight = true
			// Demand merge promotes an in-flight prefetch to demand
			// priority: it completes no later than its issue time plus the
			// uncontended latency (and never later than a fresh demand
			// miss would) — the earlier the prefetch was issued, the more
			// latency the merge hides.
			promoted := l.IssuedAt + ms.ctrl.Config().MinLatency()
			if fresh := t2 + ms.cfg.L2Lat + ms.ctrl.Config().MinLatency(); promoted < t2 {
				promoted = t2
			} else if promoted > fresh {
				promoted = fresh
			}
			if l.ReadyAt > promoted {
				l.ReadyAt = promoted
			}
		} else {
			ms.stats.L2DemandHits++
			ev.L2Hit = true
		}
		if firstUse {
			// After the promotion: a fill it moves up to t2 is not late.
			ms.consume(l.PrefSrc, l.PG, blk, l.ReadyAt, t2)
			l.Used = true
		}
		complete = max(t2, l.ReadyAt) + ms.cfg.L2Lat
	} else if sl, ok := ms.sideBuf[blk]; ok {
		// NoPollution oracle side buffer: the block moves into the L2 as a
		// used prefetched block, without the in-flight promotion.
		delete(ms.sideBuf, blk)
		ms.consume(sl.src, sl.pg, blk, sl.readyAt, t2)
		l = ms.install(blk, prefetch.SrcDemand, t2)
		l.PrefSrc = sl.src
		l.Used = true
		l.ReadyAt = sl.readyAt
		ev.L2Hit = true
		complete = max(t2, sl.readyAt) + ms.cfg.L2Lat
	} else {
		// True L2 demand miss.
		ms.stats.L2DemandMisses++
		ms.fb.DemandMisses.Inc()
		ms.notifyOutcome(OutcomeEvent{Kind: DemandMiss, BlockAddr: blk})
		if ms.cfg.IdealLDS && lds && isLoad {
			// Oracle: the LDS miss is converted into an L2 hit.
			ms.stats.IdealLDSHits++
			complete = t2 + ms.cfg.L2Lat
			l = ms.install(blk, prefetch.SrcDemand, t2)
			l.Used = true
			l.ReadyAt = complete
		} else {
			l = ms.fetch(blk, t2)
			complete = l.ReadyAt
			fetched = true
		}
	}

	if !isLoad {
		l.Dirty = true
	}
	ms.fillL1(addr, complete, !isLoad)
	ev.CompleteAt = complete
	ms.notifyAccess(ev)
	// Content scan of the demand-fetched block.
	if fetched && len(ms.fillObs) > 0 {
		ms.notifyFill(blk, FillEvent{
			Now:           complete,
			Cause:         prefetch.SrcDemand,
			TriggerPC:     pc,
			TriggerOff:    int(addr - blk),
			TriggerIsLoad: isLoad,
		})
	}
	return complete
}

// AccessWrongPath performs one speculative wrong-path load at cycle now: a
// load fetched past a mispredicted branch that will be squashed at resolve.
// The request is indistinguishable from a demand load to the memory system's
// resources — it occupies MSHRs under the same capacity discipline, consumes
// a DRAM request-buffer slot and bus bandwidth at demand priority, and its
// fill is inserted into the L2 and L1 (displacing victims: pollution) — but
// the core never waits on the returned completion time (squash), the
// access-side demand statistics and feedback counters are not touched (only
// the WrongPath* counters are), and prefetchers are not trained on it.
// Eviction-side effects of its fills — writebacks, useless-prefetch
// eviction and its outcome event, feedback interval ticks — are real:
// they are the mechanism by which wrong-path traffic pollutes. See
// DESIGN.md for what is and isn't modeled.
func (ms *MemSys) AccessWrongPath(addr uint32, now int64) int64 {
	ms.stats.WrongPathAccesses++

	// L1 hit: no resource consumed beyond the port.
	if l := ms.l1.Lookup(addr, true); l != nil {
		return max(now, l.ReadyAt) + ms.cfg.L1Lat
	}
	t2 := now + ms.cfg.L1Lat

	// L2 hit or merge with an in-flight fill. Unlike a true demand access,
	// a wrong-path hit does not promote in-flight prefetches or credit
	// prefetched lines as used — the attribution metrics count only
	// committed consumers — but it does refresh recency (LRU pollution).
	// A miss fetches the block at demand priority under MSHR capacity.
	var complete int64
	if l := ms.l2.Lookup(addr, true); l != nil {
		complete = max(t2, l.ReadyAt) + ms.cfg.L2Lat
	} else {
		ms.stats.WrongPathToDRAM++
		complete = ms.fetch(ms.l2.BlockAddr(addr), t2).ReadyAt
	}
	ms.fillL1(addr, complete, false)
	return complete
}

func (ms *MemSys) fillL1(addr uint32, readyAt int64, dirty bool) {
	l, _, _ := ms.l1.Insert(addr)
	l.ReadyAt = readyAt
	l.Used = true
	l.Dirty = dirty
}

// Issue accepts a prefetch request (prefetch.Issuer). Prefetch fills go to
// the L2 only, per the paper. Requests to blocks already present or in
// flight are dropped; the prefetch queue bound drops, never stalls.
func (ms *MemSys) Issue(r prefetch.Request) {
	blk := ms.l2.BlockAddr(r.Addr)
	if l := ms.l2.Lookup(blk, false); l != nil {
		ms.stats.PrefDropCacheHit++
		return
	}
	if ms.sideBuf != nil {
		if _, ok := ms.sideBuf[blk]; ok {
			ms.stats.PrefDropCacheHit++
			return
		}
	}
	if ms.FilterPrefetch != nil && !ms.FilterPrefetch(r) {
		ms.stats.PrefDropFilter++
		return
	}
	ms.pfQueue.PopLE(r.When)
	// Prefetches are dropped, never queued, under congestion. Two signals:
	// this core's own in-flight prefetch occupancy (the congestion limit,
	// resolved at construction — the deep cascade bound), and the hard
	// prefetch-queue capacity (128). Both are per-core, so one core's
	// recursive CDP cascades cannot starve another core's prefetchers.
	limit := ms.cfg.PrefetchCongestionLimit
	if len(ms.pfQueue) >= limit ||
		(ms.cfg.PrefetchQueue > 0 && len(ms.pfQueue) >= ms.cfg.PrefetchQueue) {
		ms.stats.PrefDropQueue++
		return
	}
	// The shared request buffer still backpressures everyone.
	if ms.ctrl.Congested(r.When, ms.ctrl.Config().RequestBuffer) {
		ms.stats.PrefDropQueue++
		return
	}
	// Recursion chains that outrun the program die: a request timestamped
	// beyond the demand clock plus a depth-4 chain's worth of latency
	// corresponds to queue state that no longer exists.
	if horizon := 4 * ms.ctrl.Config().MinLatency(); r.When > ms.lastDemand+horizon {
		ms.stats.PrefDropQueue++
		return
	}
	// Fair-share token bucket (burst = 32 requests): each core refills at
	// 1/Cores of the bus rate. Cores is resolved at construction — the
	// real machine width when the caller supplied it, one core otherwise.
	refill := float64(ms.ctrl.Config().BusCycles) * float64(ms.cfg.Cores)
	if dt := r.When - ms.pfTokenTime; dt > 0 {
		ms.pfTokens += float64(dt) / refill
		if ms.pfTokens > 32 {
			ms.pfTokens = 32
		}
		ms.pfTokenTime = r.When
	}
	if ms.pfTokens < 1 {
		ms.stats.PrefDropQueue++
		return
	}
	ms.pfTokens--

	ms.fb.Sources[r.Src].Issued.Inc()
	ready := ms.ctrl.Access(blk, r.When, false)
	ms.pfQueue.Push(ready)
	if ms.gauges {
		ms.pfGauge.Push(ready)
	}

	if ms.sideBuf != nil {
		ms.sideBuf[blk] = sideLine{readyAt: ready, pg: r.PG, src: r.Src}
	} else {
		nl := ms.install(blk, r.Src, r.When)
		nl.PrefSrc = r.Src
		nl.ReadyAt = ready
		nl.IssuedAt = r.When
		nl.Depth = r.Depth
		nl.PG = r.PG
	}

	if r.Src == prefetch.SrcCDP && len(ms.fillObs) > 0 {
		// Recursive content scan of the prefetched block.
		ms.notifyFill(blk, FillEvent{
			Now:        ready,
			Cause:      prefetch.SrcCDP,
			Depth:      r.Depth,
			PG:         r.PG,
			TriggerOff: -1,
		})
	}
}

// FlushAccounting finalizes end-of-run statistics: prefetched blocks still
// in the L2 but never used are discarded like an unused eviction, so every
// issued L2 prefetch ends as used or useless. Leftover side-buffer blocks
// emit PrefetchUseless but do not count in UselessEvicted (see the package
// comment).
func (ms *MemSys) FlushAccounting() {
	ms.l2.ForEach(func(l *cache.Line) {
		if l.PrefSrc.IsPrefetch() && !l.Used {
			ms.discard(l.PrefSrc, l.PG, l.Tag<<ms.l2.BlockShift())
		}
	})
	if ms.sideBuf != nil {
		blks := make([]uint32, 0, len(ms.sideBuf))
		for blk := range ms.sideBuf {
			blks = append(blks, blk)
		}
		sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
		for _, blk := range blks {
			sl := ms.sideBuf[blk]
			// Not discard: counting these is ROADMAP item 6's re-key.
			ms.notifyOutcome(OutcomeEvent{Kind: PrefetchUseless, BlockAddr: blk, Src: sl.src, PG: sl.pg})
		}
	}
}

// BlockSize returns the cache block size in bytes.
func (ms *MemSys) BlockSize() int { return ms.cfg.BlockSize }

// BlockShift returns log2 of the cache block size.
func (ms *MemSys) BlockShift() uint { return ms.l1.BlockShift() }

// EnableOccupancyGauges switches MSHROccupancyAt/PFQueueOccupancyAt to
// incrementally maintained gauge heaps: every fill completion is mirrored
// into a gauge, and queries retire completed entries destructively — O(log n)
// amortized per query instead of an O(n) scan, and exact even for fills the
// simulation force-popped early (an MSHR-full wait consumes the earliest
// entry before it completes). The gauges require monotone query timestamps
// (telemetry queries at interval boundaries are: Feedback.LastEvictionAt
// never decreases) and grow with every fill until queried, so they are off
// unless a telemetry recorder is attached. Call before the run starts.
func (ms *MemSys) EnableOccupancyGauges() { ms.gauges = true }

// MSHROccupancyAt returns the number of demand-miss fills still outstanding
// at cycle t. The simulation's own MSHR heap is never popped by telemetry
// reads, so tracing cannot perturb MSHR arbitration. Queries must be
// monotone in t when gauges are enabled (see EnableOccupancyGauges).
func (ms *MemSys) MSHROccupancyAt(t int64) int {
	if ms.gauges {
		ms.mshrGauge.PopLE(t)
		return ms.mshrGauge.Len()
	}
	return ms.mshr.CountGreater(t)
}

// PFQueueOccupancyAt returns the number of prefetch fills still outstanding
// at cycle t, under the same contract as MSHROccupancyAt.
func (ms *MemSys) PFQueueOccupancyAt(t int64) int {
	if ms.gauges {
		ms.pfGauge.PopLE(t)
		return ms.pfGauge.Len()
	}
	return ms.pfQueue.CountGreater(t)
}
