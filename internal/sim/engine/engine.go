// Package engine executes the cores of a multi-core mix under an
// epoch-barrier discipline that makes the simulation's outcome independent of
// how the work is scheduled across goroutines.
//
// # The determinism problem
//
// The DRAM controller resolves contention through mutable busy-until state:
// the outcome of a request depends on every request applied before it. Run
// two cores on two goroutines against one controller and the interleaving of
// their requests — and therefore every simulated number downstream — is
// decided by the Go scheduler. Bit-for-bit reproducibility of reports is a
// repo invariant (cache keys, golden tests, resumable sweeps), so that
// nondeterminism is not acceptable.
//
// # The epoch-barrier discipline
//
// Time is sliced into epochs of a fixed cycle width. Within an epoch each
// core runs against a private SHADOW controller rebased on the shared MASTER
// controller's state at the epoch boundary (dram.Controller.CopyStateFrom);
// the shadow logs every request the core issues. At the epoch barrier the
// logs are replayed onto the master in a fixed arbitration order — ascending
// arrival time, ties broken by core index, program order within a core
// (dram.Controller.ReplayMergedFrom) — so the master absorbs exactly one
// canonical request interleaving no matter which goroutine finished first.
//
// Rebasing alone would show a core only traffic strictly in its past, and
// past traffic barely contends in a busy-until model (horizons decay below
// the core's own request times within tens of cycles). So the rebase also
// arms the shadow with an ECHO of every other core's just-replayed epoch
// log, shifted forward by one epoch (dram.Controller.SetEcho): the shadow
// folds those requests in lazily, interleaved with the core's own in
// arrival order, so the core collides with a deterministic prediction of
// the cross-traffic contemporaneous with it — the previous epoch's stream
// replayed at the same addresses, priorities, and relative times. Echoed
// requests are neither logged nor counted; only real requests reach the
// master.
//
// Why a fixed order at the barrier is sufficient: during an epoch a core
// reads and writes only goroutine-confined state (its CPU, caches, memory
// image, and shadow controller — rebasing is the only read of the master,
// and the master and the saved epoch logs are quiescent while core
// goroutines run). The master mutates only at the barrier, on one goroutine,
// in an order that is a pure function of core index and each core's own
// deterministic request stream. By induction over epochs, every epoch starts
// from a deterministic master state and deterministic saved logs, and
// produces deterministic per-core streams, so the whole run is
// deterministic. The serial engine executes the identical operation sequence
// — same rebase, same echo, same step, same replay — on one goroutine, which
// is why `serial` and `parallel` produce byte-identical reports rather than
// merely similar ones. Which goroutine claims which core in an epoch is left
// to the scheduler; by the argument above it cannot matter.
//
// What the discipline changes versus a single shared controller: a core
// contends with the other cores' PREVIOUS epoch (their echo) rather than
// with their actual concurrent requests, and the completion times replay
// computes on the master are discarded in favor of the shadow's. The
// prediction error is one epoch of traffic drift; the master still absorbs
// every real request in canonical order and shapes every later epoch.
// EpochCycles trades fidelity against synchronization frequency; it is
// simulator semantics, so changing it changes results (golden tests pin it).
//
// # The worker pool and its barrier
//
// An epoch is short — 2048 cycles is a few tens of microseconds of core work
// in total — so synchronization, not simulation, decides whether parallel
// stepping pays. Run therefore starts one pool of W = min(GOMAXPROCS, cores)
// goroutines for the whole run, the calling goroutine being one of them, and
// stops it before returning; the serial engine is the same pool with W = 1.
// Each epoch the caller offers the stepping cores, every pool member makes
// one pass over them from its own home core claiming each still on offer
// (an atomic compare-and-swap per core), and the caller waits for the last
// step to finish before it replays the logs. Home cores keep a core on the
// same goroutine, and so usually on the same CPU caches, from epoch to
// epoch. A waiting goroutine polls for spinPolls polls, yielding its
// processor every yieldEvery polls so that a descheduled peer can run even
// under GOMAXPROCS=1, and only then parks on a channel; a compare-and-swap
// on its parked flag decides whether the waker or the waiter consumes the
// wake-up, so none is lost or left behind. The barrier allocates nothing:
// each core's echo list, the replay list and the master's merge cursor are
// reused across epochs.
//
// On a 2-CPU Xeon VM (GOMAXPROCS=2) the 4-core mcf/xalancbmk/omnetpp/health
// mix at scale 0.25 (about 9,450 epochs, 3.2 stepping cores per epoch) runs
// about 1.5x faster under the parallel engine than under the serial one;
// spawning a goroutine per stepping core per epoch instead was slower than
// serial.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ldsprefetch/internal/dram"
)

// Core is one steppable core of a mix. *cpu.Core satisfies it; tests may
// substitute fakes.
type Core interface {
	// Done reports whether the core's trace is fully replayed.
	Done() bool
	// Now returns the core's current issue clock.
	Now() int64
	// StepUntil replays ops until the clock reaches the horizon, returning
	// the number replayed. It must replay nothing when already past the
	// horizon and must make progress when behind it.
	StepUntil(horizon int64) int
}

// Config parameterizes an engine run.
type Config struct {
	// EpochCycles is the epoch width: the cycle budget each core may run
	// ahead of the slowest core before the barrier. Larger epochs
	// synchronize less often but delay cross-core contention visibility
	// further; the value is part of the simulator's semantics.
	EpochCycles int64
	// EchoLookahead is the collision half-window: how many cycles ahead of
	// a core's own request the other cores' echoed traffic is folded in
	// (dram.Controller.SetEcho). Like EpochCycles it is simulator
	// semantics, not a performance knob.
	EchoLookahead int64
	// Parallel steps each epoch's cores on up to min(GOMAXPROCS, cores)
	// goroutines. The result is byte-identical to the serial schedule by
	// construction.
	Parallel bool
}

// The spin-then-park budget of a barrier wait. An epoch's core work takes
// tens of microseconds, and spinPolls polls take about 60 µs on a 2-CPU
// Xeon VM, so a waiter usually sees the next epoch or the last step without
// paying a park and wake-up; yielding every yieldEvery polls lets a peer
// sharing the waiter's processor make progress meanwhile.
const (
	spinPolls  = 1 << 15
	yieldEvery = 256
)

// Run drives the cores to completion. cores[i] issues its memory requests
// through shadows[i] (a logging controller, dram.Controller.StartLog);
// master accumulates the canonical interleaving and the authoritative
// transfer counters. Run returns after the final barrier, when every core is
// done and every logged request has been applied to the master, and after
// every goroutine it started has exited. A panic in a core's step on a
// worker goroutine is re-raised on the calling goroutine as an error that
// carries the panic value and the worker's stack.
func Run(cores []Core, shadows []*dram.Controller, master *dram.Controller, cfg Config) {
	if cfg.EpochCycles <= 0 {
		cfg.EpochCycles = 1
	}
	w := 1
	if cfg.Parallel {
		w = min(runtime.GOMAXPROCS(0), len(cores))
	}
	p := newPool(cores, shadows, master, cfg)
	for m := 1; m < w; m++ {
		s := &sleeper{ch: make(chan struct{}, 1)}
		p.workers = append(p.workers, s)
		p.wg.Add(1)
		go p.worker(s, m*len(cores)/w)
	}
	defer p.stop()
	for p.publish() {
		p.drain(p.gen.Load(), 0)
		p.caller.await(func() bool { return p.pending.Load() == 0 })
		if f := p.fault.Load(); f != nil {
			panic(f)
		}
		p.commit()
	}
}

// pool is the state of one Run: the cores, the per-epoch plan the caller
// publishes, and the goroutines that step it.
type pool struct {
	cores   []Core
	shadows []*dram.Controller
	master  *dram.Controller
	cfg     Config

	// The epoch plan. The caller writes it only while no core steps:
	// before publishing an epoch and after its last step has finished.
	stepped []bool
	horizon int64
	shift   int64 // the echo's time shift: horizon minus the previous one
	// prevLogs[i] is core i's previous-epoch request log, kept after replay
	// to be echoed into the other cores' shadows at the next rebase.
	// echoes[i] lists the other cores' prevLogs in ascending core order.
	prevLogs [][]dram.Request
	echoes   [][][]dram.Request
	replay   []*dram.Controller

	// gen is the current epoch's generation. slots[i] is offered(gen) while
	// core i awaits its step in epoch gen and claimed(gen) once a goroutine
	// has taken it. Tagging slots with the generation makes a claim by a
	// goroutine still looking at a finished epoch fail instead of taking
	// work from the next one.
	gen     atomic.Uint32
	slots   []atomic.Uint64
	pending atomic.Int32 // steps of the current epoch not yet finished
	quit    atomic.Bool
	fault   atomic.Pointer[fault]

	caller  sleeper
	workers []*sleeper
	wg      sync.WaitGroup
}

func offered(gen uint32) uint64 { return uint64(gen) << 1 }
func claimed(gen uint32) uint64 { return uint64(gen)<<1 | 1 }

// fault is a panic raised by a core's step on a worker goroutine, carried
// to the calling goroutine with the worker's stack.
type fault struct {
	v     any
	stack []byte
}

func (f *fault) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", f.v, f.stack)
}

func newPool(cores []Core, shadows []*dram.Controller, master *dram.Controller, cfg Config) *pool {
	n := len(cores)
	p := &pool{
		cores:    cores,
		shadows:  shadows,
		master:   master,
		cfg:      cfg,
		stepped:  make([]bool, n),
		prevLogs: make([][]dram.Request, n),
		echoes:   make([][][]dram.Request, n),
		replay:   make([]*dram.Controller, 0, n),
		slots:    make([]atomic.Uint64, n),
		caller:   sleeper{ch: make(chan struct{}, 1)},
	}
	for i := range p.echoes {
		p.echoes[i] = make([][]dram.Request, n-1)
	}
	return p
}

// publish plans the next epoch and releases it to the workers, reporting
// false when every core is done. The horizon is the slowest live core's
// clock plus one epoch; every live core behind it steps, and the slowest
// always progresses, so the run terminates.
func (p *pool) publish() bool {
	minNow, live := int64(0), false
	for _, c := range p.cores {
		if c.Done() {
			continue
		}
		if n := c.Now(); !live || n < minNow {
			minNow, live = n, true
		}
	}
	if !live {
		return false
	}
	prev := p.horizon
	p.horizon = minNow + p.cfg.EpochCycles
	p.shift = p.horizon - prev
	gen := p.gen.Load() + 1
	n := int32(0)
	for i, c := range p.cores {
		p.stepped[i] = !c.Done() && c.Now() < p.horizon
		if p.stepped[i] {
			p.slots[i].Store(offered(gen))
			n++
		}
	}
	p.pending.Store(n)
	p.release(gen)
	return true
}

// release starts generation gen and wakes every parked worker.
func (p *pool) release(gen uint32) {
	p.gen.Store(gen)
	for _, s := range p.workers {
		s.wake()
	}
}

// drain makes one pass over the cores, starting at home, stepping each one
// epoch gen offers that it can claim. Starting each pool goroutine at its
// own home keeps a core on the same goroutine, and so on the same CPU
// caches, from epoch to epoch whenever the load allows. Each step rebases
// the core's shadow on the master, arms it with the other cores'
// previous-epoch echo, then steps — per-core work reading only quiescent
// shared state (master, prevLogs), so the claim order cannot influence it.
func (p *pool) drain(gen uint32, home int) {
	for k := range p.cores {
		i := home + k
		if i >= len(p.cores) {
			i -= len(p.cores)
		}
		if p.slots[i].Load() != offered(gen) || !p.slots[i].CompareAndSwap(offered(gen), claimed(gen)) {
			continue
		}
		p.shadows[i].CopyStateFrom(p.master)
		p.shadows[i].SetEcho(p.echoes[i], p.shift, p.cfg.EchoLookahead)
		p.cores[i].StepUntil(p.horizon)
		if p.pending.Add(-1) == 0 {
			p.caller.wake()
		}
	}
}

// worker is a pool goroutine's loop: wait for a new generation, step what
// it can claim of it from home on, repeat until stop. A panic in a step ends
// the worker: the step is counted finished, so the caller's wait still ends,
// and the panic is handed to the caller to re-raise.
func (p *pool) worker(s *sleeper, home int) {
	defer p.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			p.fault.CompareAndSwap(nil, &fault{v: r, stack: debug.Stack()})
			if p.pending.Add(-1) == 0 {
				p.caller.wake()
			}
		}
	}()
	var gen uint32
	for {
		s.await(func() bool { return p.gen.Load() != gen })
		gen = p.gen.Load()
		if p.quit.Load() {
			return
		}
		p.drain(gen, home)
	}
}

// stop releases a final, empty generation marked quit and waits for every
// worker to exit.
func (p *pool) stop() {
	p.quit.Store(true)
	p.release(p.gen.Load() + 1)
	p.wg.Wait()
}

// commit is the barrier: apply the epoch's logs to the master in the
// canonical arbitration order — arrival time, core index, program order.
// Each log is saved first for the next rebase's echo; a core that did not
// step contributed no contemporaneous traffic (it is stalled inside one
// long-latency op), so its echo is empty.
func (p *pool) commit() {
	p.replay = p.replay[:0]
	for i, stepped := range p.stepped {
		p.prevLogs[i] = p.prevLogs[i][:0]
		if stepped {
			p.prevLogs[i] = append(p.prevLogs[i], p.shadows[i].Log()...)
			p.replay = append(p.replay, p.shadows[i])
		}
	}
	p.master.ReplayMergedFrom(p.replay)
	for i, e := range p.echoes {
		k := 0
		for j, l := range p.prevLogs {
			if j != i {
				e[k] = l
				k++
			}
		}
	}
}

// sleeper is one goroutine's barrier wait: spin, then park on wake.
type sleeper struct {
	parked atomic.Bool
	ch     chan struct{} // capacity 1: the one wake-up of a park
}

// await returns once ready reports true. It polls spinPolls times, yielding
// every yieldEvery polls, then parks until a wake. ready must stay true
// once it is, and whoever makes it true must call wake afterwards.
func (s *sleeper) await(ready func() bool) {
	for i := 1; i <= spinPolls; i++ {
		if ready() {
			return
		}
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
	// A wake can be stale — its waker saw an earlier park of this sleeper —
	// so ready is checked again after every one.
	for !ready() {
		s.parked.Store(true)
		if ready() && s.parked.CompareAndSwap(true, false) {
			return
		}
		// Either not ready, or a waker won the handshake and is sending:
		// take its token so it cannot satisfy a later park.
		<-s.ch
	}
}

// wake releases s if it is parked. The compare-and-swap pairs with the one
// in await, so exactly one side consumes each park.
func (s *sleeper) wake() {
	if s.parked.Load() && s.parked.CompareAndSwap(true, false) {
		s.ch <- struct{}{}
	}
}
