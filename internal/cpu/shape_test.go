package cpu

import (
	"math/rand"
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// shapeTrace is a synthetic trace that stresses every bandwidth and window
// path of the core: compute batches from 1 instruction up to trace.MaxBatch
// (and runs longer than one batch), a pointer chase with data-dependent
// branches, independent streaming loads, and stores, some of which rewrite
// chased pointers.
func shapeTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(27))
	m := mem.New()
	const nodes = 96
	node := make([]uint32, nodes)
	for i := range node {
		node[i] = mem.HeapBase + uint32(i)*40960 + uint32(i%16)*64
	}
	for i := 0; i < nodes; i++ {
		m.Write32(node[i], node[(i*7+1)%nodes])
	}
	b := trace.NewBuilder("shape", m, 0)
	batches := []int{1, 2, 3, 5, 63, 64, trace.MaxBatch - 1, trace.MaxBatch, trace.MaxBatch + 1, 3*trace.MaxBatch + 17}
	ptr, dep := b.Load(0x100, node[0], trace.NoDep, true)
	for i := 0; i < 900; i++ {
		switch r := rng.Intn(10); {
		case r < 3:
			b.Compute(batches[rng.Intn(len(batches))])
		case r < 5:
			ptr, dep = b.Load(0x104, ptr, dep, true)
			b.Branch(0x108, 0x100, ptr&0x40 != 0, dep)
		case r < 7:
			b.Load(0x200, mem.HeapBase+uint32(i)*64, trace.NoDep, false)
		case r < 8:
			b.Store(0x300, mem.HeapBase+uint32(rng.Intn(1<<20))&^3, uint32(i), trace.NoDep)
		case r < 9:
			b.Store(0x304, node[rng.Intn(nodes)], node[rng.Intn(nodes)], dep)
		default:
			b.Branch(0x10c, 0x100, i%5 != 0, trace.NoDep)
		}
	}
	return b.Trace()
}

// TestCoreShapes pins the cycle counts of both core models over issue
// widths and window sizes the golden reports never run: widths that do and
// do not divide trace.MaxBatch, a one-entry window, and windows just below,
// at and past the paper's 256. The ooo core runs with both predictors. The
// interval expectations were recorded from the division-based bandwidth
// counters and 258-entry rings that preceded the remainder counters and
// power-of-two rings, and the ooo ones from the core that still kept a
// separate fetch-bandwidth counter, so any drift in either shows here.
func TestCoreShapes(t *testing.T) {
	// Cycles per window size, in the order of windows.
	windows := []int{1, 100, 256, 257}
	shapes := []struct {
		pred   string // "" runs the interval core
		width  int
		cycles []int64
	}{
		{"", 1, []int64{125648, 82854, 57656, 57085}},
		{"", 3, []int64{102266, 64655, 48125, 47866}},
		{"", 4, []int64{99717, 62478, 47018, 46835}},
		{"", 6, []int64{97233, 60301, 45943, 45824}},
		{PredBimodal, 1, []int64{122637, 79430, 54888, 54234}},
		{PredBimodal, 3, []int64{99434, 61439, 44560, 44275}},
		{PredBimodal, 4, []int64{96892, 59348, 43365, 43151}},
		{PredBimodal, 6, []int64{94439, 57251, 42199, 42047}},
		{PredTAGE, 1, []int64{122374, 79415, 55025, 54337}},
		{PredTAGE, 3, []int64{98846, 61627, 44939, 44655}},
		{PredTAGE, 4, []int64{96336, 59590, 43795, 43580}},
		{PredTAGE, 6, []int64{93989, 57529, 42665, 42512}},
	}
	// Branch outcomes, and so the wrong-path loads they inject, do not
	// depend on the timing parameters.
	speculative := map[string]Result{
		PredBimodal: {Retired: 25902, Branches: 269, Mispredicts: 116},
		PredTAGE:    {Retired: 25902, Branches: 269, Mispredicts: 125},
	}
	wrongPath := map[string]int64{PredBimodal: 464, PredTAGE: 500}
	for _, sh := range shapes {
		for i, window := range windows {
			tr := shapeTrace()
			ms := memsys.New(memsys.DefaultConfig(), tr.Mem, dram.NewController(dram.DefaultConfig(1)))
			cfg := Config{Window: window, Width: sh.width}
			want := Result{Retired: 25633}
			var c *Core
			if sh.pred != "" {
				c = NewOoO(cfg, OoOOptions{Predictor: sh.pred}, ms, tr)
				want = speculative[sh.pred]
			} else {
				c = NewInterval(cfg, ms, tr)
			}
			want.Cycles = sh.cycles[i]
			for !c.Done() {
				c.Step(101)
			}
			if got := c.Result(); got != want {
				t.Errorf("pred=%q width=%d window=%d: got %+v, want %+v", sh.pred, sh.width, window, got, want)
			}
			if got := ms.Stats().WrongPathAccesses; got != wrongPath[sh.pred] {
				t.Errorf("pred=%q width=%d window=%d: %d wrong-path loads, want %d", sh.pred, sh.width, window, got, wrongPath[sh.pred])
			}
		}
	}
}
