package cpu

import (
	"math/rand"
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// Tests of the instruction-slot accounting used for batched compute ops.

func TestBatchedComputeEquivalentTiming(t *testing.T) {
	// N singleton compute ops and one batch of N instructions must retire
	// in (nearly) the same number of cycles.
	mk := func(batched bool) Result {
		b := trace.NewBuilder("b", mem.New(), 0)
		if batched {
			b.Compute(12800)
		} else {
			for i := 0; i < 12800/4; i++ {
				b.Compute(4)
			}
		}
		return Run(DefaultConfig(), newMS(), b.Trace())
	}
	single := mk(false)
	batch := mk(true)
	if single.Retired != batch.Retired {
		t.Fatalf("retired %d vs %d", single.Retired, batch.Retired)
	}
	ratio := float64(batch.Cycles) / float64(single.Cycles)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("cycle ratio %v: batching changed timing (%d vs %d)",
			ratio, batch.Cycles, single.Cycles)
	}
}

func TestWindowCountsInstructionsNotOps(t *testing.T) {
	// Two widely separated loads with a 512-instruction compute batch
	// between them cannot overlap in a 256-instruction window, no matter
	// how few ops encode the batch.
	m := mem.New()
	build := func() *trace.Trace {
		b := trace.NewBuilder("w", m, 0)
		b.Load(1, mem.HeapBase, trace.NoDep, false)
		b.Compute(512)
		b.Load(2, mem.HeapBase+1<<20, trace.NoDep, false)
		return b.Trace()
	}
	r := Run(DefaultConfig(), newMS(), build())
	// Second miss cannot start until the window drains past the batch:
	// total must exceed two fully serialized misses' worth of cycles minus
	// overlap slack.
	if r.Cycles < 900 {
		t.Fatalf("cycles = %d; window must serialize loads separated by 512 instructions", r.Cycles)
	}
}

func TestWidthOneHalvesThroughput(t *testing.T) {
	b := trace.NewBuilder("w1", mem.New(), 0)
	b.Compute(10000)
	w4 := Run(Config{Window: 256, Width: 4}, newMS(), b.Trace())

	b2 := trace.NewBuilder("w1b", mem.New(), 0)
	b2.Compute(10000)
	w1 := Run(Config{Window: 256, Width: 1}, newMS(), b2.Trace())
	if w1.Cycles < 3*w4.Cycles {
		t.Fatalf("width 1 (%d cyc) must be ~4x slower than width 4 (%d cyc)", w1.Cycles, w4.Cycles)
	}
}

// randomTrace draws a well-formed, branch-free trace of 2000 random compute,
// load and store ops over a fresh memory image.
func randomTrace(rng *rand.Rand) *trace.Trace {
	b := trace.NewBuilder("fuzz", mem.New(), 0)
	var lastLoad int32 = trace.NoDep
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0:
			b.Compute(1 + rng.Intn(40))
		case 1:
			addr := mem.HeapBase + uint32(rng.Intn(1<<18))&^3
			dep := trace.NoDep
			if lastLoad >= 0 && rng.Intn(2) == 0 {
				dep = lastLoad
			}
			_, lastLoad = b.Load(uint32(100+rng.Intn(5)), addr, dep, rng.Intn(2) == 0)
		case 2:
			addr := mem.HeapBase + uint32(rng.Intn(1<<18))&^3
			b.Store(uint32(200+rng.Intn(5)), addr, uint32(i), trace.NoDep)
		}
	}
	return b.Trace()
}

func TestRandomTraceInvariants(t *testing.T) {
	// Property: for random well-formed traces, the core retires all
	// instructions, cycles are positive and at least instructions/width,
	// and timing is deterministic.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		tr := randomTrace(rng)
		if err := trace.Validate(tr); err != nil {
			t.Fatal(err)
		}
		var want int64
		for i := range tr.Ops {
			want += tr.Ops[i].Instructions()
		}
		r1 := Run(DefaultConfig(), newMS(), tr)
		if r1.Retired != want {
			t.Fatalf("retired %d, want %d", r1.Retired, want)
		}
		minCycles := want / 4
		if r1.Cycles < minCycles {
			t.Fatalf("cycles %d below issue-width bound %d", r1.Cycles, minCycles)
		}
		// Determinism requires an identical memory image: rebuild.
		// (The first run applied the trace's stores to m.)
	}
}

// TestOoOMatchesIntervalWithoutBranches pins the invariant the single core
// loop rests on: on a branch-free trace the speculative front end has nothing
// to do, so the out-of-order model at default options must time every op
// exactly as the interval model does, down to the memory-system counters.
func TestOoOMatchesIntervalWithoutBranches(t *testing.T) {
	replay := func(c *Core, ms *memsys.MemSys) (Result, memsys.Stats) {
		for !c.Done() {
			c.Step(97)
		}
		ms.FlushAccounting()
		return c.Result(), ms.Stats()
	}
	for seed := int64(1); seed <= 10; seed++ {
		// Replay applies stores to the trace's memory image, so each model
		// gets its own copy of the same trace.
		itr := randomTrace(rand.New(rand.NewSource(seed)))
		otr := randomTrace(rand.New(rand.NewSource(seed)))
		ims := memsys.New(memsys.DefaultConfig(), itr.Mem, dram.NewController(dram.DefaultConfig(1)))
		oms := memsys.New(memsys.DefaultConfig(), otr.Mem, dram.NewController(dram.DefaultConfig(1)))
		iRes, iStats := replay(NewInterval(DefaultConfig(), ims, itr), ims)
		oRes, oStats := replay(NewOoO(DefaultConfig(), OoOOptions{}, oms, otr), oms)
		if iRes != oRes {
			t.Fatalf("seed %d: interval %+v != ooo %+v", seed, iRes, oRes)
		}
		if iStats != oStats {
			t.Fatalf("seed %d: memory stats diverged:\ninterval %+v\nooo      %+v", seed, iStats, oStats)
		}
		if iRes.Retired == 0 {
			t.Fatalf("seed %d: empty replay", seed)
		}
	}
}

func TestNowMonotonic(t *testing.T) {
	m := mem.New()
	b := trace.NewBuilder("mono", m, 2)
	for i := 0; i < 500; i++ {
		b.Load(1, mem.HeapBase+uint32(i)*4096, trace.NoDep, false)
	}
	c := NewInterval(DefaultConfig(), newMS(), b.Trace())
	last := int64(-1)
	for !c.Done() {
		c.Step(16)
		if now := c.Now(); now < last {
			t.Fatalf("Now went backwards: %d -> %d", last, now)
		} else {
			last = now
		}
	}
}
