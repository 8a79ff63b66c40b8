package cpu

import (
	"strings"
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// mispredicts feeds a direction stream for one static branch through p and
// counts mispredictions after a warmup prefix.
func mispredicts(p predictor, pc uint32, dirs []bool, warmup int) int {
	wrong := 0
	for i, taken := range dirs {
		if p.predict(pc) != taken && i >= warmup {
			wrong++
		}
		p.update(pc, taken)
	}
	return wrong
}

func TestPredictorsLearnBiasedBranch(t *testing.T) {
	dirs := make([]bool, 512)
	for i := range dirs {
		dirs[i] = true
	}
	for _, kind := range []string{PredBimodal, PredTAGE} {
		p, err := newPredictor(kind)
		if err != nil {
			t.Fatal(err)
		}
		// A monotone stream must be perfect once tables/history warm up.
		if wrong := mispredicts(p, 0x7_0114, dirs, 64); wrong != 0 {
			t.Errorf("%s: %d mispredicts on an always-taken branch", kind, wrong)
		}
	}
}

func TestHistoryPredictorsLearnAlternation(t *testing.T) {
	// A strictly alternating branch defeats per-PC counters (bimodal
	// oscillates around 50%) but is a pure function of one history bit, so
	// the history-indexed TAGE must learn it.
	dirs := make([]bool, 2048)
	for i := range dirs {
		dirs[i] = i%2 == 0
	}
	const pc, warmup = 0xa_0114, 256
	bi, _ := newPredictor(PredBimodal)
	base := mispredicts(bi, pc, dirs, warmup)
	if lo := (len(dirs) - warmup) / 4; base < lo {
		t.Fatalf("bimodal got %d mispredicts on alternation, expected >= %d (should not learn it)", base, lo)
	}
	p, _ := newPredictor(PredTAGE)
	if wrong := mispredicts(p, pc, dirs, warmup); wrong > base/4 {
		t.Errorf("tage: %d mispredicts on alternation vs bimodal's %d; history is not helping", wrong, base)
	}
}

func TestNewPredictorUnknownKind(t *testing.T) {
	_, err := newPredictor("psychic")
	if err == nil {
		t.Fatal("newPredictor accepted an unknown kind")
	}
	for _, want := range []string{"psychic", PredBimodal, PredTAGE} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts OoOOptions
		want string // substring of the error; "" means valid
	}{
		{"defaults", OoOOptions{}, ""},
		{"bimodal", OoOOptions{Predictor: PredBimodal}, ""},
		{"tage", OoOOptions{Predictor: PredTAGE}, ""},
		{"unknown predictor", OoOOptions{Predictor: "psychic"}, "unknown predictor"},
		{"retired gshare", OoOOptions{Predictor: "gshare"}, "unknown predictor"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// chaseTrace builds a pointer chase whose exit-style branches depend on the
// loaded key: taken except every third node, so no static bias predicts it
// perfectly and mispredictions are guaranteed.
func chaseTrace(m *mem.Memory) *trace.Trace {
	const n = 400
	nodes := make([]uint32, n)
	for i := range nodes {
		nodes[i] = mem.HeapBase + uint32(i)*131072 + uint32(i%8)*64
	}
	for i := 0; i < n-1; i++ {
		m.Write32(nodes[i], nodes[i+1])
	}
	b := trace.NewBuilder("chase", m, 0)
	ptr, dep := b.Load(0x100, nodes[0], trace.NoDep, true)
	for i := 1; i < n; i++ {
		b.Compute(2)
		b.Branch(0x108, 0x100, i%3 != 0, dep)
		ptr, dep = b.Load(0x104, ptr, dep, true)
	}
	return b.Trace()
}

func run(opts OoOOptions, m *mem.Memory, tr *trace.Trace) (*Core, Result, memsys.Stats) {
	return runWith(opts, nil, m, tr)
}

// runWith is run with tune, when non-nil, applied to the fresh core: the
// tests set its fixed front-end parameters through it.
func runWith(opts OoOOptions, tune func(*Core), m *mem.Memory, tr *trace.Trace) (*Core, Result, memsys.Stats) {
	ms := memsys.New(memsys.DefaultConfig(), m, dram.NewController(dram.DefaultConfig(1)))
	c := NewOoO(DefaultConfig(), opts, ms, tr)
	if tune != nil {
		tune(c)
	}
	for !c.Done() {
		c.Step(64)
	}
	return c, c.Result(), ms.Stats()
}

func TestRunDeterministicWithWrongPathTraffic(t *testing.T) {
	m := mem.New()
	tr := chaseTrace(m)
	_, r1, s1 := run(OoOOptions{Predictor: PredTAGE}, m, tr)
	_, r2, s2 := run(OoOOptions{Predictor: PredTAGE}, m, tr)
	if r1 != r2 {
		t.Fatalf("two identical runs diverged: %+v vs %+v", r1, r2)
	}
	if s1 != s2 {
		t.Fatalf("memory-system stats diverged: %+v vs %+v", s1, s2)
	}
	if r1.Branches == 0 || r1.Mispredicts == 0 {
		t.Fatalf("data-dependent branches produced no mispredictions: %+v", r1)
	}
	if s1.WrongPathAccesses == 0 {
		t.Fatalf("mispredictions injected no wrong-path traffic: %+v / %+v", r1, s1)
	}
}

func TestWrongPathDepthZeroDisablesTraffic(t *testing.T) {
	m := mem.New()
	tr := chaseTrace(m)
	_, r, s := runWith(OoOOptions{}, func(c *Core) { c.wpDepth = 0 }, m, tr)
	if r.Mispredicts == 0 {
		t.Fatalf("expected mispredictions: %+v", r)
	}
	if s.WrongPathAccesses != 0 || s.WrongPathToDRAM != 0 {
		t.Fatalf("wrong-path traffic with depth 0: %+v / %+v", r, s)
	}
}

func TestMispredictPenaltyCostsCycles(t *testing.T) {
	m := mem.New()
	tr := chaseTrace(m)
	// Disable wrong-path traffic so the comparison isolates the refill
	// penalty from cache-pollution side effects.
	_, cheap, _ := runWith(OoOOptions{}, func(c *Core) { c.penalty, c.wpDepth = 1, 0 }, m, tr)
	_, dear, _ := runWith(OoOOptions{}, func(c *Core) { c.penalty, c.wpDepth = 60, 0 }, m, tr)
	if cheap.Mispredicts != dear.Mispredicts {
		t.Fatalf("penalty changed prediction outcomes: %d vs %d mispredicts",
			cheap.Mispredicts, dear.Mispredicts)
	}
	if dear.Cycles <= cheap.Cycles {
		t.Fatalf("penalty 60 ran in %d cycles vs %d at penalty 1; redirect is free",
			dear.Cycles, cheap.Cycles)
	}
}

func TestStepUntilMatchesStep(t *testing.T) {
	m := mem.New()
	tr := chaseTrace(m)
	_, want, _ := run(OoOOptions{}, m, tr)

	ms := memsys.New(memsys.DefaultConfig(), m, dram.NewController(dram.DefaultConfig(1)))
	c := NewOoO(DefaultConfig(), OoOOptions{}, ms, tr)
	var horizon int64
	for !c.Done() {
		horizon += 500
		c.StepUntil(horizon)
	}
	if got := c.Result(); got != want {
		t.Fatalf("StepUntil replay %+v != Step replay %+v", got, want)
	}
}

// TestWrongPathSeesLoadedPointer pins the pointer the wrong path chases
// after a store rewrites bytes of the last pointer-chase load's word before
// a mispredicted branch: the chase must start from the value the load
// returned, not from what the store left in memory. Each case stores at an
// offset from the loaded word (aligned, 1–3-byte unaligned overlaps on
// either side, and the adjacent words, which do not overlap); the
// expectations were recorded with the load's value read eagerly at the load.
func TestWrongPathSeesLoadedPointer(t *testing.T) {
	type outcome struct {
		res       Result
		wrongPath int64
		toDRAM    int64
		l2Misses  int64
	}
	// The loaded pointers are the same in every case, so is the outcome.
	want := outcome{Result{Cycles: 113623, Retired: 1795, Branches: 299, Mispredicts: 99}, 396, 396, 102}
	for _, off := range []int32{0, 1, 2, 3, -1, -2, -3, 4, -4} {
		m := mem.New()
		const n = 300
		nodes := make([]uint32, n)
		for i := range nodes {
			nodes[i] = mem.HeapBase + uint32(i)*65536 + uint32(i%8)*64 + 8
		}
		for i := 0; i < n-1; i++ {
			m.Write32(nodes[i], nodes[i+1])
			m.Write32(nodes[i+1]+32, nodes[(i*13+5)%n])
		}
		b := trace.NewBuilder("lazyptr", m, 0)
		ptr, dep := b.Load(0x100, nodes[0], trace.NoDep, true)
		for i := 1; i < n; i++ {
			// Overwrite (part of) the word just loaded with a pointer to a
			// block that holds a different pointer, then branch.
			b.Store(0x104, uint32(int32(nodes[i-1])+off), nodes[(i*7)%n]+32, dep)
			b.Compute(3)
			b.Branch(0x108, 0x100, i%3 != 0, dep)
			ptr, dep = b.Load(0x10c, ptr, dep, true)
		}
		tr := b.Trace()
		ms := memsys.New(memsys.DefaultConfig(), m, dram.NewController(dram.DefaultConfig(1)))
		c := NewOoO(DefaultConfig(), OoOOptions{}, ms, tr)
		for !c.Done() {
			c.Step(64)
		}
		st := ms.Stats()
		got := outcome{c.Result(), st.WrongPathAccesses, st.WrongPathToDRAM, st.L2DemandMisses}
		if got != want {
			t.Errorf("store offset %d: got %+v, want %+v", off, got, want)
		}
	}
}
