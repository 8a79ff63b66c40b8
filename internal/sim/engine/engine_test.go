package engine

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ldsprefetch/internal/dram"
)

// fakeCore issues a scripted request stream through its shadow controller,
// one simulated cycle at a time, honoring the StepUntil contract.
type fakeCore struct {
	sh  *dram.Controller
	evs []dram.Request
	pos int
	now int64
	end int64
}

func (f *fakeCore) Done() bool { return f.now >= f.end }
func (f *fakeCore) Now() int64 { return f.now }

func (f *fakeCore) StepUntil(h int64) int {
	n := 0
	for f.now < h && f.now < f.end {
		for f.pos < len(f.evs) && f.evs[f.pos].At <= f.now {
			e := f.evs[f.pos]
			if e.Writeback {
				f.sh.Writeback(e.Addr, e.At)
			} else {
				f.sh.Access(e.Addr, e.At, e.Demand)
			}
			f.pos++
			n++
		}
		f.now++
	}
	return n
}

func script(seed int64, n int, end int64) []dram.Request {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]dram.Request, 0, n)
	t := int64(0)
	for i := 0; i < n && t < end; i++ {
		t += int64(rng.Intn(50))
		evs = append(evs, dram.Request{
			Addr:   0x1000_0000 + uint32(rng.Intn(128))<<6,
			At:     t,
			Demand: rng.Intn(2) == 0,
		})
	}
	return evs
}

// runMix drives four scripted cores with uneven finishing times through the
// engine and returns the master.
func runMix(parallel bool) *dram.Controller {
	cfg := dram.DefaultConfig(4)
	master := dram.NewController(cfg)
	var cores []Core
	var shadows []*dram.Controller
	for i := 0; i < 4; i++ {
		sh := dram.NewController(cfg)
		sh.StartLog()
		end := int64(20000 * (i + 1)) // staggered completion
		cores = append(cores, &fakeCore{sh: sh, evs: script(int64(i+1), 400, end), end: end})
		shadows = append(shadows, sh)
	}
	Run(cores, shadows, master, Config{EpochCycles: 512, Parallel: parallel})
	return master
}

// TestParallelMatchesSerial pins the engine's core guarantee on synthetic
// cores: the master controller ends in the same state under both schedules.
// The parallel engine runs with fewer, as many, and more Ps than cores: under
// GOMAXPROCS(1) the pool is the caller alone, and at 2 and 4 its workers must
// still terminate and match. (The full-stack byte-identical report test
// lives in internal/sim.)
func TestParallelMatchesSerial(t *testing.T) {
	ser := runMix(false)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		par := runMix(true)
		runtime.GOMAXPROCS(prev)
		sameMaster(t, ser, par)
	}
}

// TestAllRequestsReachMaster verifies no logged request is lost at barriers:
// the master's transfer count equals the sum of scripted requests.
func TestAllRequestsReachMaster(t *testing.T) {
	master := runMix(true)
	var want int64
	for i := 0; i < 4; i++ {
		end := int64(20000 * (i + 1))
		want += int64(len(script(int64(i+1), 400, end)))
	}
	if master.Transfers != want {
		t.Fatalf("master absorbed %d transfers, scripts issued %d", master.Transfers, want)
	}
}

// TestTermination pins progress with degenerate epoch widths: even a
// too-small EpochCycles must terminate (the slowest live core always steps).
func TestTermination(t *testing.T) {
	cfg := dram.DefaultConfig(1)
	master := dram.NewController(cfg)
	sh := dram.NewController(cfg)
	sh.StartLog()
	c := &fakeCore{sh: sh, evs: script(9, 50, 5000), end: 5000}
	Run([]Core{c}, []*dram.Controller{sh}, master, Config{EpochCycles: 0, Parallel: false})
	if !c.Done() {
		t.Fatal("engine returned before the core finished")
	}
}

// sameMaster fails the test unless two masters agree on their counters and
// resolve a probe request identically. The probe runs on copies, so a master
// can be compared more than once.
func sameMaster(t *testing.T, want, got *dram.Controller) {
	t.Helper()
	if want.Transfers != got.Transfers || want.DemandTransfers != got.DemandTransfers || want.Stalls != got.Stalls {
		t.Errorf("counters diverge: want (%d,%d,%d), got (%d,%d,%d)",
			want.Transfers, want.DemandTransfers, want.Stalls,
			got.Transfers, got.DemandTransfers, got.Stalls)
	}
	probe := func(c *dram.Controller) int64 {
		cp := dram.NewController(c.Config())
		cp.CopyStateFrom(c)
		return cp.Access(0x7fff_0040, 100000, true)
	}
	if a, b := probe(want), probe(got); a != b {
		t.Errorf("probe resolves at %d on one master, %d on the other", a, b)
	}
}

// settled reports whether the goroutine count returns to n. A worker that
// has signalled its exit may still be unwinding, so it yields a bounded
// number of times before giving up.
func settled(n int) bool {
	for i := 0; i < 10000; i++ {
		if runtime.NumGoroutine() <= n {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// TestRunLeavesNoGoroutines pins the pool's lifetime: every worker a parallel
// Run starts has exited when it returns.
func TestRunLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	runMix(true)
	if !settled(before) {
		t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
	}
}

// faultCore is one of a pair of cores on a two-goroutine pool. The core at
// index bad panics in its first step after signalling entered; its partner
// waits for that signal, so the two steps run on different goroutines, and
// the pool's homes (0 for the caller, 1 for the worker) decide which runs
// which.
type faultCore struct {
	fakeCore
	bad     bool
	entered chan struct{}
}

func (f *faultCore) StepUntil(h int64) int {
	if f.bad {
		close(f.entered)
		panic("core fault")
	}
	<-f.entered
	return f.fakeCore.StepUntil(h)
}

// TestStepPanicReachesCaller pins that a panic in a core's step is raised by
// Run on the calling goroutine — directly for the caller's own steps, as an
// error carrying the worker's stack for a worker's — and leaves no worker
// behind.
func TestStepPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for bad, want := range []string{"caller", "worker"} {
		before := runtime.NumGoroutine()
		cfg := dram.DefaultConfig(2)
		entered := make(chan struct{})
		var cores []Core
		var shadows []*dram.Controller
		for i := 0; i < 2; i++ {
			sh := dram.NewController(cfg)
			sh.StartLog()
			shadows = append(shadows, sh)
			cores = append(cores, &faultCore{fakeCore: fakeCore{sh: sh, end: 1000}, bad: i == bad, entered: entered})
		}
		var got any
		func() {
			defer func() { got = recover() }()
			Run(cores, shadows, dram.NewController(cfg), Config{EpochCycles: 512, Parallel: true})
		}()
		switch f, _ := got.(*fault); {
		case want == "caller" && got != "core fault":
			t.Errorf("caller's step: Run raised %v, want the core's panic", got)
		case want == "worker" && (f == nil || f.v != "core fault" || !strings.Contains(f.Error(), "StepUntil")):
			t.Errorf("worker's step: Run raised %v, want the core's panic with the worker's stack", got)
		}
		if !settled(before) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestConcurrentRunsMatchSerial runs four parallel Runs at once on two Ps,
// so the pools' goroutines outnumber the processors and every barrier wait
// must yield or park for a descheduled peer to finish its step.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ser := runMix(false)
	masters := make([]*dram.Controller, 4)
	var wg sync.WaitGroup
	for i := range masters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			masters[i] = runMix(true)
		}(i)
	}
	wg.Wait()
	for _, m := range masters {
		sameMaster(t, ser, m)
	}
}

// TestRunAllocationsIndependentOfEpochs pins the allocation-free barrier: a
// run ten times as long, at the same request density, allocates no more.
func TestRunAllocationsIndependentOfEpochs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	allocs := func(end int64, parallel bool) float64 {
		cfg := dram.DefaultConfig(4)
		var fakes []*fakeCore
		var cores []Core
		var shadows []*dram.Controller
		for i := 0; i < 4; i++ {
			sh := dram.NewController(cfg)
			sh.StartLog()
			var evs []dram.Request
			for at := int64(i); at < end; at += 37 {
				evs = append(evs, dram.Request{Addr: 0x1000_0000 + uint32(at%97)<<6, At: at, Demand: at%2 == 0})
			}
			f := &fakeCore{sh: sh, evs: evs, end: end}
			fakes = append(fakes, f)
			cores = append(cores, f)
			shadows = append(shadows, sh)
		}
		master := dram.NewController(cfg)
		return testing.AllocsPerRun(3, func() {
			for _, f := range fakes {
				f.pos, f.now = 0, 0
			}
			Run(cores, shadows, master, Config{EpochCycles: 512, EchoLookahead: 128, Parallel: parallel})
		})
	}
	for _, parallel := range []bool{false, true} {
		short, long := allocs(20_000, parallel), allocs(200_000, parallel)
		if long > short {
			t.Errorf("parallel=%v: %v allocations per Run over ~40 epochs, %v over ~400", parallel, short, long)
		}
	}
}
