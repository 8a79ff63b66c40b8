package memsys

import (
	"fmt"
	"slices"
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/prefetch"
)

func newMS(t *testing.T, mutate func(*Config)) *MemSys {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg, mem.New(), dram.NewController(dram.DefaultConfig(1)))
}

func TestMissHitLatencies(t *testing.T) {
	ms := newMS(t, nil)
	const addr = 0x1000_0000
	// Cold miss: L1 + L2 + DRAM.
	c1 := ms.Access(addr, 100, true, false, 0)
	if c1 < 450 {
		t.Fatalf("cold miss completes at %d, want >= 450", c1)
	}
	// L1 hit afterwards.
	c2 := ms.Access(addr, 100, true, false, c1)
	if c2 != c1+2 {
		t.Fatalf("L1 hit completes at %d, want %d", c2, c1+2)
	}
	// Different address in the same block: also L1 hit.
	c3 := ms.Access(addr+8, 100, true, false, c2)
	if c3 != c2+2 {
		t.Fatalf("same-block hit completes at %d, want %d", c3, c2+2)
	}
	st := ms.Stats()
	if st.L2DemandMisses != 1 || st.L1Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss, 2 L1 hits", st)
	}
}

func TestL2HitAfterL1Conflict(t *testing.T) {
	ms := newMS(t, nil)
	// Fill a block, then evict it from L1 by filling the same L1 set.
	base := uint32(0x1000_0000)
	ms.Access(base, 1, true, false, 0)
	// L1 is 32KB/4-way/64B = 128 sets; stride 128*64 = 8192 hits same set.
	for i := uint32(1); i <= 4; i++ {
		ms.Access(base+i*8192, 1, true, false, int64(i)*5000)
	}
	c := ms.Access(base, 1, true, false, 100000)
	if c != 100000+2+15 {
		t.Fatalf("L2 hit completes at %d, want %d", c, 100000+2+15)
	}
}

func TestPrefetchCredit(t *testing.T) {
	ms := newMS(t, nil)
	const blk = 0x1000_0040
	ms.Issue(prefetch.Request{When: 0, Addr: blk, Src: prefetch.SrcStream})
	if ms.Feedback().Sources[prefetch.SrcStream].Issued.Raw() != 1 {
		t.Fatal("prefetch not counted as issued")
	}
	// Demand access long after the fill: used, not late.
	ms.Access(blk, 7, true, false, 10000)
	fb := ms.Feedback()
	if fb.Sources[prefetch.SrcStream].Used.Raw() != 1 {
		t.Fatal("prefetch not credited as used")
	}
	if fb.Sources[prefetch.SrcStream].Late.Raw() != 0 {
		t.Fatal("timely prefetch must not be late")
	}
	// Second access must not double count.
	ms.Access(blk, 7, true, false, 20000)
	if fb.Sources[prefetch.SrcStream].Used.Raw() != 1 {
		t.Fatal("used double-counted")
	}
	if fb.DemandMisses.Raw() != 0 {
		t.Fatal("prefetch hit must not count as a demand miss")
	}
}

// TestLatePrefetch: a demand that arrives while a prefetch's fill is in
// flight consumes it once, as used and late, from the L2 and from the
// NoPollution side buffer alike. The low-priority path is congested so the
// prefetch's own fill lands well after a demand-priority one would: the L2
// merge promotes the fill, while the side buffer completes at the
// unpromoted fill time (ROADMAP item 6 adds the promotion there).
func TestLatePrefetch(t *testing.T) {
	for _, noPollution := range []bool{false, true} {
		ms := newMS(t, func(c *Config) { c.NoPollution = noPollution })
		var used []OutcomeEvent
		ms.ObserveOutcomes(func(ev OutcomeEvent) {
			if ev.Kind == PrefetchUsed {
				used = append(used, ev)
			}
		})
		const blk = 0x1000_0040
		for i := uint32(1); i <= 12; i++ {
			ms.Issue(prefetch.Request{When: 0, Addr: 0x2000_0000 + i*64, Src: prefetch.SrcStream})
		}
		ms.Issue(prefetch.Request{When: 100, Addr: blk, Src: prefetch.SrcCDP, Depth: 1})
		var readyAt int64
		if noPollution {
			readyAt = ms.sideBuf[blk].readyAt
		} else {
			readyAt = ms.l2.Lookup(blk, false).ReadyAt
		}
		// Demand arrives while the fill is still in flight.
		c := ms.Access(blk, 7, true, false, 150)
		fb := ms.Feedback()
		if got := fb.Sources[prefetch.SrcCDP]; got.Used.Raw() != 1 || got.Late.Raw() != 1 || len(used) != 1 {
			t.Fatalf("noPollution=%v: late prefetch credited used=%v late=%v with %d PrefetchUsed events, want 1/1/1",
				noPollution, got.Used.Raw(), got.Late.Raw(), len(used))
		}
		unpromoted := readyAt + ms.cfg.L2Lat
		// Promoted bound: issue(100) + MinLatency(450) + L2Lat(15) = 565.
		if unpromoted <= 600 {
			t.Fatalf("noPollution=%v: prefetch fill ready at %d; the congestion did not delay it past the promoted bound", noPollution, readyAt)
		}
		if noPollution {
			if c != unpromoted {
				t.Fatalf("side-buffer late use completes at %d, want the unpromoted fill time %d", c, unpromoted)
			}
			if ms.Stats().InFlightMerges != 0 {
				t.Fatal("side-buffer hit counted as an in-flight merge")
			}
			continue
		}
		if c < 150+2+15 || c > 600 {
			t.Fatalf("late merge completes at %d, want the promoted bound near 565 (unpromoted %d)", c, unpromoted)
		}
		if ms.Stats().InFlightMerges != 1 {
			t.Fatal("in-flight merge not counted")
		}
	}
}

func TestPrefetchDropOnCacheHit(t *testing.T) {
	ms := newMS(t, nil)
	const blk = 0x1000_0040
	ms.Access(blk, 7, true, false, 0)
	ms.Issue(prefetch.Request{When: 500, Addr: blk, Src: prefetch.SrcStream})
	if ms.Stats().PrefDropCacheHit != 1 {
		t.Fatal("prefetch to resident block must be dropped")
	}
	if ms.Feedback().Sources[prefetch.SrcStream].Issued.Raw() != 0 {
		t.Fatal("dropped prefetch must not count as issued")
	}
}

func TestPGUsefulnessHooks(t *testing.T) {
	ms := newMS(t, nil)
	var useful, useless []prefetch.PGKey
	ms.ObserveOutcomes(func(ev OutcomeEvent) {
		switch ev.Kind {
		case PrefetchUsed:
			useful = append(useful, ev.PG)
		case PrefetchUseless:
			useless = append(useless, ev.PG)
		}
	})

	pg1 := prefetch.MakePGKey(11, 2)
	pg2 := prefetch.MakePGKey(11, 3)
	ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0040, Src: prefetch.SrcCDP, Depth: 1, PG: pg1})
	ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0080, Src: prefetch.SrcCDP, Depth: 1, PG: pg2})
	ms.Access(0x1000_0040, 7, true, false, 5000) // pg1 consumed
	ms.FlushAccounting()                         // pg2 left unused
	if len(useful) != 1 || useful[0] != pg1 {
		t.Fatalf("useful = %v, want [pg1]", useful)
	}
	if len(useless) != 1 || useless[0] != pg2 {
		t.Fatalf("useless = %v, want [pg2]", useless)
	}
}

func TestIdealLDSOracle(t *testing.T) {
	ms := newMS(t, func(c *Config) { c.IdealLDS = true })
	c := ms.Access(0x1000_0000, 7, true, true, 0) // LDS load
	if c != 0+2+15 {
		t.Fatalf("ideal LDS miss completes at %d, want 17", c)
	}
	if ms.Stats().IdealLDSHits != 1 {
		t.Fatal("ideal LDS hit not counted")
	}
	// Non-LDS load still misses to DRAM.
	c2 := ms.Access(0x2000_0000, 8, true, false, 0)
	if c2 < 450 {
		t.Fatalf("non-LDS miss completes at %d, want >= 450", c2)
	}
}

func TestNoPollutionSideBuffer(t *testing.T) {
	ms := newMS(t, func(c *Config) { c.NoPollution = true })
	ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0040, Src: prefetch.SrcCDP, Depth: 1})
	// The L2 must not contain the block (no pollution), but a demand access
	// finds it in the side buffer and counts as used.
	c := ms.Access(0x1000_0040, 7, true, false, 5000)
	if c != 5000+2+15 {
		t.Fatalf("side-buffer hit completes at %d, want 5017", c)
	}
	if ms.Feedback().Sources[prefetch.SrcCDP].Used.Raw() != 1 {
		t.Fatal("side-buffer consumption not credited")
	}
}

func TestFilterPrefetchGate(t *testing.T) {
	ms := newMS(t, nil)
	ms.FilterPrefetch = func(r prefetch.Request) bool { return false }
	ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0040, Src: prefetch.SrcCDP})
	if ms.Stats().PrefDropFilter != 1 {
		t.Fatal("filtered prefetch not counted as dropped")
	}
	if ms.Feedback().Sources[prefetch.SrcCDP].Issued.Raw() != 0 {
		t.Fatal("filtered prefetch must not issue")
	}
}

func TestStoreMarksDirtyAndWritesBack(t *testing.T) {
	ms := newMS(t, nil)
	base := uint32(0x1000_0000)
	ms.Access(base, 1, false, false, 0) // store miss: write-allocate
	// Evict the block from L2 by filling its set (L2: 2048 sets, 8 ways;
	// stride = 2048*64).
	for i := uint32(1); i <= 8; i++ {
		ms.Access(base+i*2048*64, 1, true, false, int64(i)*2000)
	}
	if ms.Stats().Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", ms.Stats().Writebacks)
	}
}

func TestPollutionAttribution(t *testing.T) {
	ms := newMS(t, nil)
	var evs []OutcomeEvent
	ms.ObserveOutcomes(func(ev OutcomeEvent) { evs = append(evs, ev) })
	base := uint32(0x1000_0000)
	// Demand-fill a block, evict it from the L1 (so the later re-access
	// reaches the L2), then evict it from the L2 with prefetch fills.
	ms.Access(base, 1, true, false, 0)
	for i := uint32(1); i <= 4; i++ {
		ms.Access(base+i*8192, 1, true, false, int64(i)*1000) // same L1 set, other L2 sets
	}
	for i := uint32(1); i <= 8; i++ {
		// Keep the demand clock moving so the horizon gate admits the
		// prefetches (a quiesced core issues no prefetches).
		ms.Access(base+i*8192+4096, 1, true, false, 10000+int64(i)*1000)
		ms.Issue(prefetch.Request{When: 10000 + int64(i)*1000, Addr: base + i*2048*64, Src: prefetch.SrcCDP})
	}
	// Re-access the displaced block: the events FDP attributes pollution
	// from, a CDP displacement of base and a later demand miss to it.
	ms.Access(base, 1, true, false, 50000)
	displaced, missed := -1, -1
	for i, ev := range evs {
		if ev.BlockAddr != base {
			continue
		}
		switch ev {
		case OutcomeEvent{Kind: DisplacedByPrefetch, BlockAddr: base, Src: prefetch.SrcCDP}:
			displaced = i
		case OutcomeEvent{Kind: DemandMiss, BlockAddr: base}:
			missed = i
		}
	}
	if displaced < 0 || missed < displaced {
		t.Fatalf("events for base: displaced at %d, missed at %d; want a CDP displacement, then a demand miss", displaced, missed)
	}
}

type fillRecorder struct {
	fills []FillEvent
}

func (f *fillRecorder) Name() string            { return "rec" }
func (f *fillRecorder) Source() prefetch.Source { return prefetch.SrcCDP }
func (f *fillRecorder) OnFill(ev FillEvent)     { f.fills = append(f.fills, ev) }

func TestDemandFillEventCarriesTriggerAndData(t *testing.T) {
	ms := newMS(t, nil)
	rec := &fillRecorder{}
	ms.Attach(rec)
	ms.Mem().Write32(0x1000_0040, 0xfeedface)
	ms.Access(0x1000_0044, 77, true, false, 0)
	if len(rec.fills) != 1 {
		t.Fatalf("fills = %d, want 1", len(rec.fills))
	}
	ev := rec.fills[0]
	if ev.Cause != prefetch.SrcDemand || ev.TriggerPC != 77 || ev.TriggerOff != 4 || !ev.TriggerIsLoad {
		t.Fatalf("fill event = %+v", ev)
	}
	if got := uint32(ev.Data[0]) | uint32(ev.Data[1])<<8 | uint32(ev.Data[2])<<16 | uint32(ev.Data[3])<<24; got != 0xfeedface {
		t.Fatalf("fill data word 0 = %#x, want 0xfeedface", got)
	}
}

func TestCDPFillEventOnPrefetch(t *testing.T) {
	ms := newMS(t, nil)
	rec := &fillRecorder{}
	ms.Attach(rec)
	ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0080, Src: prefetch.SrcCDP, Depth: 2})
	if len(rec.fills) != 1 || rec.fills[0].Cause != prefetch.SrcCDP || rec.fills[0].Depth != 2 {
		t.Fatalf("fills = %+v, want one CDP fill at depth 2", rec.fills)
	}
	// Stream prefetches must not trigger content scans.
	ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0100, Src: prefetch.SrcStream})
	if len(rec.fills) != 1 {
		t.Fatal("stream prefetch fill must not be scanned")
	}
}

// orderedFill logs each fill it observes, tagged with its name, into a log
// shared with other observers.
type orderedFill struct {
	name string
	log  *[]string
}

func (o *orderedFill) Name() string            { return o.name }
func (o *orderedFill) Source() prefetch.Source { return prefetch.SrcCDP }
func (o *orderedFill) OnFill(ev FillEvent) {
	*o.log = append(*o.log, fmt.Sprintf("%s:%#x", o.name, ev.BlockAddr))
}

// driveFills runs two demand misses and one CDP prefetch through ms, over a
// memory image whose blocks are non-zero.
func driveFills(ms *MemSys) {
	for a := uint32(0x1000_0000); a < 0x1000_0200; a += 4 {
		ms.Mem().Write32(a, a|1)
	}
	ms.Access(0x1000_0004, 7, true, false, 0)
	ms.Access(0x1000_0048, 7, false, false, 10)
	ms.Issue(prefetch.Request{When: 20, Addr: 0x1000_0180, Src: prefetch.SrcCDP, Depth: 1})
}

func TestFillObserversInAttachOrder(t *testing.T) {
	ms := newMS(t, nil)
	var log []string
	acc := &accessRecorder{}
	ms.Attach(&orderedFill{"a", &log})
	ms.Attach(acc)
	ms.Attach(&orderedFill{"b", &log})
	driveFills(ms)
	want := []string{"a:0x10000000", "b:0x10000000", "a:0x10000040", "b:0x10000040", "a:0x10000180", "b:0x10000180"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("fill order %v, want %v", log, want)
	}
	if len(acc.evs) != 2 {
		t.Fatalf("access observer saw %d accesses, want 2", len(acc.evs))
	}
}

// TestNoFillObserverNoScan: an observer with only OnAccess is not
// subscribed to fills, and with no fill observer attached the memory system
// never reads a block into its scan buffer.
func TestNoFillObserverNoScan(t *testing.T) {
	for _, attach := range []bool{false, true} {
		ms := newMS(t, nil)
		acc := &accessRecorder{}
		if attach {
			ms.Attach(acc)
		}
		driveFills(ms)
		if len(ms.fillObs) != 0 {
			t.Fatalf("access-only observer subscribed to fills: %d fill observers", len(ms.fillObs))
		}
		for i, b := range ms.blockBuf {
			if b != 0 {
				t.Fatalf("scan buffer byte %d = %#x with no fill observer", i, b)
			}
		}
		if attach && len(acc.evs) != 2 {
			t.Fatalf("access observer saw %d accesses, want 2", len(acc.evs))
		}
	}
	// Control: one fill observer makes the same run fill the buffer.
	ms := newMS(t, nil)
	var log []string
	ms.Attach(&orderedFill{"a", &log})
	driveFills(ms)
	if len(log) != 3 || ms.blockBuf[0] == 0 {
		t.Fatalf("fill observer saw %v, scan buffer %x", log, ms.blockBuf[:4])
	}
}

func TestPrefetchQueueBound(t *testing.T) {
	ms := newMS(t, func(c *Config) { c.PrefetchQueue = 2 })
	for i := uint32(0); i < 4; i++ {
		ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0000 + i*64, Src: prefetch.SrcStream})
	}
	if got := ms.Stats().PrefDropQueue; got != 2 {
		t.Fatalf("PrefDropQueue = %d, want 2", got)
	}
}

func TestMergePromotionUsesIssueTime(t *testing.T) {
	ms := newMS(t, nil)
	const blk = 0x1000_0040
	// Congest the low-priority path so the prefetch's own fill would be
	// very late, then merge a demand shortly after issue: the promotion
	// must complete near issue-time + minimum latency, not at the slow
	// prefetch fill time.
	for i := uint32(1); i <= 12; i++ {
		ms.Issue(prefetch.Request{When: 0, Addr: 0x2000_0000 + i*64, Src: prefetch.SrcStream})
	}
	ms.Issue(prefetch.Request{When: 100, Addr: blk, Src: prefetch.SrcCDP})
	c := ms.Access(blk, 7, true, false, 150)
	// Promoted bound: issue(100) + MinLatency(450) + L2Lat(15) = 565.
	if c > 600 {
		t.Fatalf("merged demand completes at %d; promotion must cap near 565", c)
	}
	if c < 450 {
		t.Fatalf("merged demand completes at %d; cannot beat the memory latency", c)
	}
}

func TestPrefetchDropUnderCongestion(t *testing.T) {
	ms := newMS(t, nil)
	// Saturate the low-priority backlog; later prefetches must drop.
	drops0 := ms.Stats().PrefDropQueue
	for i := uint32(0); i < 200; i++ {
		ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0000 + i*64, Src: prefetch.SrcCDP, Depth: 1})
	}
	if ms.Stats().PrefDropQueue == drops0 {
		t.Fatal("no prefetches dropped under a 200-deep burst")
	}
	// Issued must be well below 200.
	if issued := ms.Feedback().Sources[prefetch.SrcCDP].Issued.Raw(); issued > 150 {
		t.Fatalf("issued %v of a 200 burst; congestion dropping too weak", issued)
	}
}

func TestHitPrefetchSrcReported(t *testing.T) {
	ms := newMS(t, nil)
	rec := &accessRecorder{}
	ms.Attach(rec)
	ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0040, Src: prefetch.SrcStream})
	ms.Access(0x1000_0040, 7, true, false, 5000)
	last := rec.evs[len(rec.evs)-1]
	if last.HitPrefetchSrc != prefetch.SrcStream {
		t.Fatalf("HitPrefetchSrc = %v, want stream (informing-load info)", last.HitPrefetchSrc)
	}
	// Second access: the prefetched bit was consumed; no longer reported.
	ms.Access(0x1000_0040, 7, true, false, 6000)
	if last2 := rec.evs[len(rec.evs)-1]; last2.HitPrefetchSrc != prefetch.SrcDemand {
		t.Fatalf("second hit reports %v, want demand", last2.HitPrefetchSrc)
	}
}

// accessRecorder records every access it is sent, L1 hits included.
type accessRecorder struct{ evs []AccessEvent }

func (a *accessRecorder) Name() string            { return "rec" }
func (a *accessRecorder) Source() prefetch.Source { return prefetch.SrcDemand }
func (a *accessRecorder) OnAccess(ev AccessEvent) { a.evs = append(a.evs, ev) }
func (a *accessRecorder) ObservesL1Hits()         {}

// loggedObs logs the name of each access it is sent, with "/l1" appended for
// an L1 hit. It lacks the L1HitObserver marker; loggedHitObs has it.
type loggedObs struct {
	name string
	log  *[]string
}

func (o *loggedObs) Name() string            { return o.name }
func (o *loggedObs) Source() prefetch.Source { return prefetch.SrcDemand }
func (o *loggedObs) OnAccess(ev AccessEvent) {
	if ev.L1Hit {
		*o.log = append(*o.log, o.name+"/l1")
		return
	}
	*o.log = append(*o.log, o.name)
}

type loggedHitObs struct{ loggedObs }

func (o *loggedHitObs) ObservesL1Hits() {}

// TestL1HitsOnlyToMarkedObservers: an L1 hit reaches only the observers that
// carry the L1HitObserver marker, and an access that reaches the L2 reaches
// every observer; each in attach order.
func TestL1HitsOnlyToMarkedObservers(t *testing.T) {
	ms := newMS(t, nil)
	var log []string
	ms.Attach(&loggedObs{"a", &log})
	ms.Attach(&loggedHitObs{loggedObs{"B", &log}})
	ms.Attach(&loggedObs{"c", &log})
	ms.Attach(&loggedHitObs{loggedObs{"D", &log}})
	ms.Access(0x1000_0000, 7, true, false, 0)     // L2 miss
	ms.Access(0x1000_0004, 7, true, false, 1000)  // L1 hit
	ms.Access(0x1000_0008, 7, false, false, 1010) // L1 hit, store
	ms.Access(0x1000_0040, 7, true, false, 1020)  // L2 miss
	want := []string{"a", "B", "c", "D", "B/l1", "D/l1", "B/l1", "D/l1", "a", "B", "c", "D"}
	if !slices.Equal(log, want) {
		t.Fatalf("events %v, want %v", log, want)
	}
	if st := ms.Stats(); st.L1Hits != 2 || st.Accesses != 4 {
		t.Fatalf("%d L1 hits of %d accesses, want 2 of 4", st.L1Hits, st.Accesses)
	}
}

// TestMSHRFullDemandWaits pins the MSHR capacity semantics: a demand miss
// that finds every MSHR busy waits for the earliest outstanding fill before
// its own request can even reach the controller.
func TestMSHRFullDemandWaits(t *testing.T) {
	ms := newMS(t, func(c *Config) { c.MSHRs = 2 })
	minLat := ms.Controller().Config().MinLatency()
	// Two concurrent independent misses occupy both MSHRs.
	c1 := ms.Access(0x1000_0000, 1, true, false, 0)
	c2 := ms.Access(0x1000_0040, 1, true, false, 0)
	earliest := c1
	if c2 < earliest {
		earliest = c2
	}
	// Third concurrent miss: must wait for the earliest fill, then pay a
	// full memory access of its own.
	c3 := ms.Access(0x1000_0080, 1, true, false, 0)
	if c3 < earliest+minLat {
		t.Fatalf("third miss completes at %d; with full MSHRs it must wait for the earliest fill (%d) plus a memory access (%d)",
			c3, earliest, minLat)
	}

	// Control: with enough MSHRs the same access pattern overlaps and the
	// third miss completes well before the MSHR-limited one did.
	free := newMS(t, func(c *Config) { c.MSHRs = 32 })
	free.Access(0x1000_0000, 1, true, false, 0)
	free.Access(0x1000_0040, 1, true, false, 0)
	if c3f := free.Access(0x1000_0080, 1, true, false, 0); c3f >= c3 {
		t.Fatalf("unconstrained third miss completes at %d, constrained at %d; MSHR wait had no effect", c3f, c3)
	}
}

// TestMSHRFullWaitConsumesEarliest verifies the wait consumes the earliest
// entry (the paper's "waits for the earliest outstanding fill"), so two
// back-to-back over-capacity misses serialize on successive completions
// rather than both waiting on the same one.
func TestMSHRFullWaitConsumesEarliest(t *testing.T) {
	ms := newMS(t, func(c *Config) { c.MSHRs = 1 })
	c1 := ms.Access(0x1000_0000, 1, true, false, 0)
	c2 := ms.Access(0x1000_0040, 1, true, false, 0)
	c3 := ms.Access(0x1000_0080, 1, true, false, 0)
	if !(c1 < c2 && c2 < c3) {
		t.Fatalf("over-capacity misses must serialize: got %d, %d, %d", c1, c2, c3)
	}
	minLat := ms.Controller().Config().MinLatency()
	if c3 < c2+minLat {
		t.Fatalf("third miss completes at %d, want >= second fill (%d) + memory latency (%d)", c3, c2, minLat)
	}
}

// TestPrefetchDropAccounting verifies dropped prefetches stay out of every
// downstream denominator: a drop is never counted as issued (the accuracy
// denominator, Used/Issued) and never reaches the bus (the BPKI numerator,
// Controller.Transfers). Requests are conserved across the drop counters.
func TestPrefetchDropAccounting(t *testing.T) {
	ms := newMS(t, nil)
	const n = 200
	for i := uint32(0); i < n; i++ {
		ms.Issue(prefetch.Request{When: 0, Addr: 0x1000_0000 + i*64, Src: prefetch.SrcCDP, Depth: 1})
	}
	st := ms.Stats()
	issued := int64(ms.Feedback().Sources[prefetch.SrcCDP].Issued.Raw())
	if st.PrefDropQueue == 0 {
		t.Fatal("burst did not trigger queue drops; test is vacuous")
	}
	total := issued + st.PrefDropQueue + st.PrefDropCacheHit + st.PrefDropFilter
	if total != n {
		t.Fatalf("requests not conserved: issued %d + dropQueue %d + dropCacheHit %d + dropFilter %d = %d, want %d",
			issued, st.PrefDropQueue, st.PrefDropCacheHit, st.PrefDropFilter, total, n)
	}
	// No demand traffic and no writebacks occurred, so every bus transfer is
	// an issued prefetch — drops must not transfer.
	if got := ms.Controller().Transfers; got != issued {
		t.Fatalf("bus transfers = %d, issued prefetches = %d; dropped prefetches leaked onto the bus", got, issued)
	}
	if used := ms.Feedback().Sources[prefetch.SrcCDP].Used.Raw(); used != 0 {
		t.Fatalf("used = %v with no demand accesses", used)
	}
}

// TestOccupancyGaugesMatchScan cross-checks the two occupancy
// implementations: at monotone query times the gauge answer must equal the
// non-destructive scan of the simulation heap (no force-pops occur here, so
// the two views coincide exactly).
func TestOccupancyGaugesMatchScan(t *testing.T) {
	gauged := newMS(t, nil)
	gauged.EnableOccupancyGauges()
	plain := newMS(t, nil)
	var times []int64
	for i := uint32(0); i < 6; i++ {
		// Distinct L2 sets: all true misses.
		c := gauged.Access(0x1000_0000+i*64, 1, true, false, int64(i)*30)
		plain.Access(0x1000_0000+i*64, 1, true, false, int64(i)*30)
		times = append(times, c)
	}
	queries := []int64{0, times[0], times[2] + 1, times[5], times[5] + 1000}
	for _, q := range queries {
		if g, s := gauged.MSHROccupancyAt(q), plain.MSHROccupancyAt(q); g != s {
			t.Fatalf("MSHROccupancyAt(%d): gauge %d, scan %d", q, g, s)
		}
	}
}

func TestResolvePrefetchCongestionLimit(t *testing.T) {
	cases := []struct {
		limit, reqBuf, want int
	}{
		{0, 32, 16},    // unset, single-core buffer: half of it
		{0, 128, 64},   // unset, 4-core buffer
		{0, 0, 16},     // unset, unbounded buffer: paper's single-core half
		{0, -1, 16},    // defensive: negative treated as unbounded
		{24, 32, 24},   // explicit limit used unchanged
		{1, 128, 1},    // explicit tiny limit respected
		{200, 32, 200}, // explicit limit may exceed the buffer
	}
	for _, c := range cases {
		if got := ResolvePrefetchCongestionLimit(c.limit, c.reqBuf); got != c.want {
			t.Errorf("ResolvePrefetchCongestionLimit(%d, %d) = %d, want %d",
				c.limit, c.reqBuf, got, c.want)
		}
	}
}

// TestFairShareUsesConfiguredCores is the regression test for the fair-share
// token bucket inferring the core count from the request-buffer size
// (RequestBuffer/32): for a custom buffer the inferred width is wrong, and a
// single core sharing nothing was refilled at a quarter of its bus share.
// Config.Cores carries the real width, and the zero value means one core
// whatever the request-buffer size.
func TestFairShareUsesConfiguredCores(t *testing.T) {
	run := func(cores int) (issued int64, dropped int64) {
		dcfg := dram.DefaultConfig(1)
		dcfg.RequestBuffer = 128 // custom buffer: RequestBuffer/32 would say 4 cores
		cfg := DefaultConfig()
		cfg.Cores = cores
		ms := New(cfg, mem.New(), dram.NewController(dcfg))
		// Keep the demand clock ahead so the recursion-horizon gate admits
		// every request; this test isolates the token bucket.
		ms.lastDemand = 1 << 40
		for i := int64(0); i < 200; i++ {
			// Paced at 2 bus occupancies per request: a full bus share
			// refills 2 tokens per request, a quarter share only 0.5.
			ms.Issue(prefetch.Request{
				When: i * 2 * dcfg.BusCycles,
				Addr: uint32(0x4000_0040) + uint32(i)*64,
				Src:  prefetch.SrcStream,
			})
		}
		return int64(ms.Feedback().Sources[prefetch.SrcStream].Issued.Raw()),
			ms.Stats().PrefDropQueue
	}
	if issued, dropped := run(1); dropped != 0 || issued != 200 {
		t.Fatalf("1 core at half the bus rate: issued %d, dropped %d; the bucket must not throttle (pre-fix it inferred 4 cores)",
			issued, dropped)
	}
	if issued, dropped := run(0); dropped != 0 || issued != 200 {
		t.Fatalf("Cores=0 with RequestBuffer=128: issued %d, dropped %d; zero must pace as 1 core, not infer 4",
			issued, dropped)
	}
	if _, dropped := run(4); dropped == 0 {
		t.Fatal("4 configured cores at half the bus rate must pace the bucket")
	}
}

// TestConfigCoresResolution pins how New resolves Config.Cores.
func TestConfigCoresResolution(t *testing.T) {
	if got := New(DefaultConfig(), mem.New(), dram.NewController(dram.DefaultConfig(4))).Config().Cores; got != 1 {
		t.Fatalf("unset cores = %d, want 1 (no inference from RequestBuffer 128)", got)
	}
	unbounded := dram.DefaultConfig(1)
	unbounded.RequestBuffer = 0
	if got := New(DefaultConfig(), mem.New(), dram.NewController(unbounded)).Config().Cores; got != 1 {
		t.Fatalf("unbounded-buffer cores = %d, want 1", got)
	}
	cfg := DefaultConfig()
	cfg.Cores = 3
	if got := New(cfg, mem.New(), dram.NewController(dram.DefaultConfig(8))).Config().Cores; got != 3 {
		t.Fatalf("explicit cores rewritten to %d, want 3", got)
	}
}

// An explicit PrefetchCongestionLimit of 0 and an unset field (as left by
// DefaultConfig or a JSON payload that omits it) must behave identically:
// both resolve to half the request buffer at construction, and Config()
// reports the effective value.
func TestCongestionLimitZeroEqualsUnset(t *testing.T) {
	unset := newMS(t, nil)
	explicit := newMS(t, func(c *Config) { c.PrefetchCongestionLimit = 0 })
	if unset.Config().PrefetchCongestionLimit != explicit.Config().PrefetchCongestionLimit {
		t.Fatalf("unset limit resolved to %d, explicit 0 to %d",
			unset.Config().PrefetchCongestionLimit, explicit.Config().PrefetchCongestionLimit)
	}
	if got := unset.Config().PrefetchCongestionLimit; got != 16 {
		t.Fatalf("single-core resolved limit = %d, want 16 (half the 32-entry request buffer)", got)
	}
	// Multi-core request buffer scales the resolved limit.
	quad := New(DefaultConfig(), mem.New(), dram.NewController(dram.DefaultConfig(4)))
	if got := quad.Config().PrefetchCongestionLimit; got != 64 {
		t.Fatalf("4-core resolved limit = %d, want 64", got)
	}
	// Explicit positive limits survive construction unchanged.
	pinned := newMS(t, func(c *Config) { c.PrefetchCongestionLimit = 5 })
	if got := pinned.Config().PrefetchCongestionLimit; got != 5 {
		t.Fatalf("explicit limit rewritten to %d, want 5", got)
	}
}

// TestOutcomeEventSites pins every emission site of the outcome events, their
// order, and delivery to each observer in subscription order.
func TestOutcomeEventSites(t *testing.T) {
	ms := newMS(t, nil)
	var a, b []OutcomeEvent
	var order []string
	ms.ObserveOutcomes(func(ev OutcomeEvent) { a = append(a, ev); order = append(order, "a") })
	ms.ObserveOutcomes(func(ev OutcomeEvent) { b = append(b, ev); order = append(order, "b") })
	const (
		blkA = uint32(0x1000_0040)
		blkB = uint32(0x1000_0080)
		blkC = uint32(0x1000_00c0)
		setX = uint32(0x2000_0000) // L2 set 0; consecutive ways are 2048*64 apart
		way  = uint32(2048 * 64)
	)
	pgB, pgD := prefetch.MakePGKey(11, 2), prefetch.MakePGKey(12, 3)
	// L2 hit on a timely prefetch.
	ms.Issue(prefetch.Request{When: 0, Addr: blkA, Src: prefetch.SrcStream})
	ms.Access(blkA, 1, true, false, 10000)
	// In-flight merge with a CDP prefetch.
	ms.Issue(prefetch.Request{When: 10000, Addr: blkB, Src: prefetch.SrcCDP, Depth: 1, PG: pgB})
	ms.Access(blkB, 1, true, false, 10010)
	// Plain demand miss.
	ms.Access(blkC, 1, true, false, 11000)
	// Fill set X with an unused CDP prefetch and seven demand blocks; an
	// eighth demand miss evicts the prefetch: the miss's event comes first.
	ms.Issue(prefetch.Request{When: 12000, Addr: setX, Src: prefetch.SrcCDP, Depth: 1, PG: pgD})
	for i := uint32(1); i <= 8; i++ {
		ms.Access(setX+i*way, 1, true, false, 12000+int64(i)*1000)
	}
	// A stream prefetch into set X displaces its LRU demand block.
	ms.Issue(prefetch.Request{When: 20000, Addr: setX + 9*way, Src: prefetch.SrcStream})
	// End of run: the stream block is resident and unused.
	ms.FlushAccounting()

	want := []OutcomeEvent{
		{Kind: PrefetchUsed, BlockAddr: blkA, Src: prefetch.SrcStream},
		{Kind: PrefetchUsed, BlockAddr: blkB, Src: prefetch.SrcCDP, PG: pgB},
		{Kind: DemandMiss, BlockAddr: blkC},
	}
	for i := uint32(1); i <= 7; i++ {
		want = append(want, OutcomeEvent{Kind: DemandMiss, BlockAddr: setX + i*way})
	}
	want = append(want,
		OutcomeEvent{Kind: DemandMiss, BlockAddr: setX + 8*way},
		OutcomeEvent{Kind: PrefetchUseless, BlockAddr: setX, Src: prefetch.SrcCDP, PG: pgD},
		OutcomeEvent{Kind: DisplacedByPrefetch, BlockAddr: setX + 1*way, Src: prefetch.SrcStream},
		OutcomeEvent{Kind: PrefetchUseless, BlockAddr: setX + 9*way, Src: prefetch.SrcStream},
	)
	if fmt.Sprint(a) != fmt.Sprint(want) {
		t.Fatalf("events\n got %v\nwant %v", a, want)
	}
	if fmt.Sprint(b) != fmt.Sprint(a) {
		t.Fatalf("second observer saw %v, first %v", b, a)
	}
	for i := range order {
		if want := []string{"a", "b"}[i%2]; order[i] != want {
			t.Fatalf("delivery %d went to %s, want %s (subscription order)", i, order[i], want)
		}
	}

	// NoPollution: a side-buffer hit is a use, and leftover side-buffer
	// blocks are useless at the end of the run, in address order.
	ms = newMS(t, func(c *Config) { c.NoPollution = true })
	a = nil
	ms.ObserveOutcomes(func(ev OutcomeEvent) { a = append(a, ev) })
	ms.Issue(prefetch.Request{When: 0, Addr: blkB, Src: prefetch.SrcCDP, Depth: 1, PG: pgB})
	ms.Access(blkB, 1, true, false, 5000)
	ms.Issue(prefetch.Request{When: 5000, Addr: blkC, Src: prefetch.SrcCDP, Depth: 1, PG: pgD})
	ms.Issue(prefetch.Request{When: 5000, Addr: blkA, Src: prefetch.SrcStream})
	ms.FlushAccounting()
	want = []OutcomeEvent{
		{Kind: PrefetchUsed, BlockAddr: blkB, Src: prefetch.SrcCDP, PG: pgB},
		{Kind: PrefetchUseless, BlockAddr: blkA, Src: prefetch.SrcStream},
		{Kind: PrefetchUseless, BlockAddr: blkC, Src: prefetch.SrcCDP, PG: pgD},
	}
	if fmt.Sprint(a) != fmt.Sprint(want) {
		t.Fatalf("no-pollution events\n got %v\nwant %v", a, want)
	}
}

// TestAccessWrongPath pins what a wrong-path load shares with a demand miss
// (the MSHR wait, demand-priority DRAM, the fill's eviction) and what it
// does not touch (the use credit, the in-flight promotion, the demand
// counters).
func TestAccessWrongPath(t *testing.T) {
	// A wrong-path hit on an unused in-flight prefetch is not a use.
	ms := newMS(t, nil)
	var evs []OutcomeEvent
	ms.ObserveOutcomes(func(ev OutcomeEvent) { evs = append(evs, ev) })
	const blk = 0x1000_0040
	ms.Issue(prefetch.Request{When: 0, Addr: blk, Src: prefetch.SrcCDP, Depth: 1})
	l := ms.l2.Lookup(blk, false)
	readyAt := l.ReadyAt
	if c := ms.AccessWrongPath(blk, 10); c != readyAt+ms.cfg.L2Lat {
		t.Fatalf("wrong-path in-flight hit completes at %d, want the fill's %d + L2 latency", c, readyAt)
	}
	if l.Used || l.ReadyAt != readyAt || ms.Feedback().Sources[prefetch.SrcCDP].Used.Raw() != 0 || len(evs) != 0 {
		t.Fatalf("wrong-path hit: line used=%v ready %d (was %d), Used %v, events %v; want no use and no promotion",
			l.Used, l.ReadyAt, readyAt, ms.Feedback().Sources[prefetch.SrcCDP].Used.Raw(), evs)
	}

	// With every MSHR busy a wrong-path miss waits for the earliest fill,
	// completing exactly when a demand miss in its place would.
	var done [2]int64
	var st Stats
	var demandMisses float64
	for i, wrongPath := range []bool{false, true} {
		ms := newMS(t, func(c *Config) { c.MSHRs = 2 })
		c1 := ms.Access(0x1000_0000, 1, true, false, 0)
		c2 := ms.Access(0x1000_0040, 1, true, false, 0)
		if wrongPath {
			done[i] = ms.AccessWrongPath(0x1000_0080, 0)
			st, demandMisses = ms.Stats(), ms.Feedback().DemandMisses.Raw()
		} else {
			done[i] = ms.Access(0x1000_0080, 1, true, false, 0)
		}
		if minLat := ms.Controller().Config().MinLatency(); done[i] < min(c1, c2)+minLat {
			t.Fatalf("wrongPath=%v: third miss completes at %d; it must wait for the earliest fill (%d) plus a memory access (%d)",
				wrongPath, done[i], min(c1, c2), minLat)
		}
	}
	if done[0] != done[1] {
		t.Fatalf("over-capacity wrong-path miss completes at %d, demand miss at %d", done[1], done[0])
	}
	// Only the wrong-path counters see the wrong-path miss.
	if st.WrongPathAccesses != 1 || st.WrongPathToDRAM != 1 || st.Accesses != 2 || st.L2DemandMisses != 2 || demandMisses != 2 {
		t.Fatalf("after 2 demand misses and 1 wrong-path miss: %+v, feedback demand misses %v", st, demandMisses)
	}

	// A wrong-path fill that evicts an unused prefetch discards it.
	const (
		setX = uint32(0x2000_0000) // L2 set 0; consecutive ways are 2048*64 apart
		way  = uint32(2048 * 64)
	)
	ms = newMS(t, nil)
	evs = nil
	ms.ObserveOutcomes(func(ev OutcomeEvent) { evs = append(evs, ev) })
	ms.Issue(prefetch.Request{When: 0, Addr: setX, Src: prefetch.SrcStream})
	for i := uint32(1); i <= 7; i++ {
		ms.Access(setX+i*way, 1, true, false, int64(i)*1000)
	}
	evs = nil
	ms.AccessWrongPath(setX+8*way, 9000)
	want := []OutcomeEvent{{Kind: PrefetchUseless, BlockAddr: setX, Src: prefetch.SrcStream}}
	if fmt.Sprint(evs) != fmt.Sprint(want) || ms.Stats().UselessEvicted[prefetch.SrcStream] != 1 {
		t.Fatalf("wrong-path eviction of an unused prefetch: events %v, UselessEvicted %d; want %v and 1",
			evs, ms.Stats().UselessEvicted[prefetch.SrcStream], want)
	}
}
