package fdp

import (
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

type fakePF struct{ level prefetch.AggLevel }

func (f *fakePF) Level() prefetch.AggLevel     { return f.level }
func (f *fakePF) SetLevel(l prefetch.AggLevel) { f.level = l.Clamp() }

// setupInterval closes one interval of c's feedback (length 1) with the
// given counts.
// The pol polluting misses reach c as outcome events: each displaces a fresh
// block by src, then misses on it.
func setupInterval(c *Controller, src prefetch.Source, issued, used, late float64, pol int, misses float64) {
	fb := c.fb
	s := &fb.Sources[src]
	s.Issued.Add(issued)
	s.Used.Add(used)
	s.Late.Add(late)
	for i := 0; i < pol; i++ {
		blk := uint32(0x5000_0000 + i*64)
		c.OnOutcome(memsys.OutcomeEvent{Kind: memsys.DisplacedByPrefetch, BlockAddr: blk, Src: src})
		c.OnOutcome(memsys.OutcomeEvent{Kind: memsys.DemandMiss, BlockAddr: blk})
	}
	fb.DemandMisses.Add(misses)
	fb.Eviction() // interval length 1 closes the interval
}

func TestLowAccuracyThrottlesDown(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	p := &fakePF{level: prefetch.Aggressive}
	c := NewController(DefaultThresholds(), fb)
	c.Add(prefetch.SrcStream, p)
	c.Install()
	setupInterval(c, prefetch.SrcStream, 100, 10, 0, 0, 100)
	if p.level != prefetch.Moderate {
		t.Fatalf("level = %v, want throttled down", p.level)
	}
}

func TestHighAccuracyLateThrottlesUp(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	p := &fakePF{level: prefetch.Conservative}
	c := NewController(DefaultThresholds(), fb)
	c.Add(prefetch.SrcCDP, p)
	c.Install()
	setupInterval(c, prefetch.SrcCDP, 100, 90, 80, 0, 100)
	if p.level != prefetch.Moderate {
		t.Fatalf("level = %v, want throttled up (accurate but late)", p.level)
	}
}

func TestHighAccuracyTimelyUnchanged(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	p := &fakePF{level: prefetch.Moderate}
	c := NewController(DefaultThresholds(), fb)
	c.Add(prefetch.SrcCDP, p)
	c.Install()
	setupInterval(c, prefetch.SrcCDP, 100, 90, 5, 0, 100)
	if p.level != prefetch.Moderate {
		t.Fatalf("level = %v, want unchanged", p.level)
	}
}

func TestMediumAccuracyPollutingThrottlesDown(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	p := &fakePF{level: prefetch.Moderate}
	c := NewController(DefaultThresholds(), fb)
	c.Add(prefetch.SrcStream, p)
	c.Install()
	// Accuracy 0.5 (medium), not late, pollution 10 per 100 misses.
	setupInterval(c, prefetch.SrcStream, 100, 50, 0, 10, 100)
	if p.level != prefetch.Conservative {
		t.Fatalf("level = %v, want throttled down (polluting)", p.level)
	}
}

func TestIndividualIgnoresRival(t *testing.T) {
	// FDP throttles each prefetcher from its own metrics only: a
	// low-accuracy stream goes down even when CDP is doing great, and
	// vice versa — no coordination.
	fb := prefetch.NewFeedback(1)
	sp := &fakePF{level: prefetch.Aggressive}
	cd := &fakePF{level: prefetch.Conservative}
	c := NewController(DefaultThresholds(), fb)
	c.Add(prefetch.SrcStream, sp)
	c.Add(prefetch.SrcCDP, cd)
	c.Install()
	fb.Sources[prefetch.SrcStream].Issued.Add(100)
	fb.Sources[prefetch.SrcStream].Used.Add(5)
	fb.Sources[prefetch.SrcCDP].Issued.Add(100)
	fb.Sources[prefetch.SrcCDP].Used.Add(90)
	fb.Sources[prefetch.SrcCDP].Late.Add(60)
	fb.DemandMisses.Add(100)
	fb.Eviction()
	if sp.level != prefetch.Moderate {
		t.Fatalf("stream level = %v, want down", sp.level)
	}
	if cd.level != prefetch.Moderate {
		t.Fatalf("cdp level = %v, want up (late)", cd.level)
	}
}

func TestStreakHysteresis(t *testing.T) {
	th := DefaultThresholds()
	th.DownStreak = 2
	fb := prefetch.NewFeedback(1)
	p := &fakePF{level: prefetch.Aggressive}
	c := NewController(th, fb)
	c.Add(prefetch.SrcStream, p)
	c.Install()
	setupInterval(c, prefetch.SrcStream, 100, 10, 0, 0, 100)
	if p.level != prefetch.Aggressive {
		t.Fatalf("level moved after one interval despite streak=2")
	}
	setupInterval(c, prefetch.SrcStream, 100, 10, 0, 0, 100)
	if p.level != prefetch.Moderate {
		t.Fatalf("level = %v, want down after two intervals", p.level)
	}
}

// TestPollutionAttribution drives a memory system: a demand-filled block is
// displaced from the L2 by CDP prefetch fills and then re-accessed, and the
// controller subscribed to its outcomes counts one CDP pollution event.
func TestPollutionAttribution(t *testing.T) {
	ms := memsys.New(memsys.DefaultConfig(), mem.New(), dram.NewController(dram.DefaultConfig(1)))
	c := NewController(DefaultThresholds(), ms.Feedback())
	ms.ObserveOutcomes(c.OnOutcome)
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
	// Re-access the displaced block: pollution by CDP.
	ms.Access(base, 1, true, false, 50000)
	if got := c.pollution[prefetch.SrcCDP].Raw(); got != 1 {
		t.Fatalf("CDP pollution = %v, want 1", got)
	}
	// Demand fills to the same L1 and L2 sets displace the block again; the
	// next miss to it is not pollution, because the attribution was consumed.
	for i := uint32(9); i <= 16; i++ {
		ms.Access(base+i*2048*64, 1, true, false, 60000+int64(i)*1000)
	}
	misses := ms.Stats().L2DemandMisses
	ms.Access(base, 1, true, false, 90000)
	if ms.Stats().L2DemandMisses != misses+1 {
		t.Fatal("re-access after demand displacement did not miss the L2; test is vacuous")
	}
	if got := c.pollution[prefetch.SrcCDP].Raw(); got != 1 {
		t.Fatalf("CDP pollution after a demand re-displacement = %v, want still 1", got)
	}
}

// TestPollutionSurvivesDoubleEviction is the regression test for a
// window/table desync: a block displaced twice within the 4096-entry window
// holds two ring slots, and recycling the OLDER slot must not drop the
// attribution the newer slot still covers.
func TestPollutionSurvivesDoubleEviction(t *testing.T) {
	c := NewController(DefaultThresholds(), prefetch.NewFeedback(0))
	displace := func(blk uint32, src prefetch.Source) {
		c.OnOutcome(memsys.OutcomeEvent{Kind: memsys.DisplacedByPrefetch, BlockAddr: blk, Src: src})
	}
	miss := func(blk uint32) {
		c.OnOutcome(memsys.OutcomeEvent{Kind: memsys.DemandMiss, BlockAddr: blk})
	}
	const blk = uint32(0x3000_0000)
	displace(blk, prefetch.SrcCDP)
	displace(blk, prefetch.SrcCDP)
	// 4095 distinct later displacements recycle exactly the first of those
	// slots (positions 2..4095, then position 0 again).
	for i := uint32(0); i < pollutionWindow-1; i++ {
		displace(0x4000_0040+i*64, prefetch.SrcStream)
	}
	// The newer slot is still live, so the demand miss is CDP pollution.
	miss(blk)
	if got := c.pollution[prefetch.SrcCDP].Raw(); got != 1 {
		t.Fatalf("pollution = %v, want 1 (attribution dropped by window/table desync)", got)
	}
	// The attribution is consumed in place, not deleted: a second miss does
	// not re-count, and the entry stays until its last slot is recycled.
	miss(blk)
	if got := c.pollution[prefetch.SrcCDP].Raw(); got != 1 {
		t.Fatalf("pollution after a second miss = %v, want 1", got)
	}
	if d, ok := c.displacedBy[blk]; !ok || d.src != prefetch.SrcDemand {
		t.Fatalf("post-attribution entry = %+v,%v, want consumed (SrcDemand) entry", d, ok)
	}
	displace(0x5000_0040, prefetch.SrcStream)
	if _, ok := c.displacedBy[blk]; ok {
		t.Fatal("entry must be deleted when its last ring slot is recycled")
	}
	if len(c.displacedBy) != pollutionWindow {
		t.Fatalf("%d remembered blocks, want one per window slot (%d)", len(c.displacedBy), pollutionWindow)
	}
	// Pollution is folded into the smoothed value at each round.
	c.Round()
	if got := c.pollution[prefetch.SrcCDP].Value(); got != 0.5 {
		t.Fatalf("smoothed pollution after one round = %v, want 0.5", got)
	}
}
