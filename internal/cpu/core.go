package cpu

import (
	"fmt"
	"math/bits"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// OoOOptions parameterizes the speculative out-of-order core (NewOoO). The
// front end fetches at the issue Width, a mispredicted branch costs a
// fixed mispredictPenalty-cycle refill, and each misprediction injects
// wrongPathDepth wrong-path loads.
type OoOOptions struct {
	// Predictor selects the branch predictor: "bimodal" (default) or
	// "tage".
	Predictor string `json:"predictor,omitempty"`
}

// Validate checks option values without building anything.
func (o *OoOOptions) Validate() error {
	_, err := newPredictor(o.Predictor)
	return err
}

// mispredictPenalty is the fetch-redirect penalty in cycles after a
// mispredicted branch resolves (pipeline refill).
const mispredictPenalty = 15

// wrongPathDepth is the number of speculative wrong-path loads injected per
// misprediction.
const wrongPathDepth = 4

// Core is one core replaying a trace against a memory system: in-order
// issue, out-of-order completion, in-order retire, total cycles = retire
// time of the last instruction (see the package comment for the two models
// it runs).
//
// Without a branch predictor (NewInterval) branch ops are transparent: they
// consume no issue or retire slots, no window space, and no cycles, and they
// contribute nothing to the retired instruction count — a trace with branch
// ops produces a report byte-identical to the same trace without them. With
// one (NewOoO) branches are instructions like any other, and everything the
// front end adds — fetch bandwidth, redirects, wrong-path traffic — sits
// behind that one predictor test, so the interval model pays nothing for it.
type Core struct {
	cfg Config
	ms  *memsys.MemSys
	tr  *trace.Trace

	complete []int64 // completion time per op (producers are memory ops)

	// Ring buffers over recent ops, indexed by dense ordinal (the ordinal
	// among ops that take slots; without a predictor, branches are
	// skipped) masked by ringMask. Every indexed op carries ≥1 instruction,
	// so any op within the instruction window is at most Window ordinals
	// back; the rings hold the next power of two ≥ Window+2 entries.
	retireRing []int64 // retire time per op
	cumRing    []int64 // cumulative instruction count through each op
	ringMask   int

	pos        int
	dense      int   // dense ordinal of op pos (ring index space)
	windowTail int   // oldest dense ordinal whose slots are still charged to the window
	cumInstr   int64 // instructions up to and including ordinal dense-1
	issue      slots // issue bandwidth (Width/cycle)
	retire     slots // retire bandwidth (Width/cycle)
	lastIssue  int64
	lastRetire int64

	// Speculative front end, used only when pred is non-nil. Fetch runs at
	// the issue width, so issue bandwidth also bounds fetch.
	pred       predictor
	penalty    int64 // mispredictPenalty; tests vary it
	wpDepth    int   // wrongPathDepth; tests vary it (0 disables)
	redirectAt int64 // no op may issue before this (mispredict refill)

	// Wrong-path address synthesis state: the last demand load address and
	// the last pointer value chased out of a linked structure. The value is
	// read lazily: ptrAddr is the address of the last pointer-chase load,
	// and while ptrPending is set lastPtr is stale and the value still sits
	// in memory at ptrAddr, since only a store that overlaps it could change
	// it (step reads it before such a store writes).
	lastAddr   uint32
	lastPtr    uint32
	ptrAddr    uint32
	ptrPending bool

	branches    int64
	mispredicts int64
}

// NewInterval prepares an interval-model replay of tr on ms: no branch
// predictor, so branch ops are skipped.
func NewInterval(cfg Config, ms *memsys.MemSys, tr *trace.Trace) *Core {
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.Width <= 0 {
		cfg.Width = 4
	}
	ring := 1 << bits.Len(uint(cfg.Window+1))
	c := &Core{
		cfg:        cfg,
		ms:         ms,
		tr:         tr,
		complete:   make([]int64, len(tr.Ops)),
		retireRing: make([]int64, ring),
		cumRing:    make([]int64, ring),
		ringMask:   ring - 1,
	}
	c.issue = newSlots(cfg.Width)
	c.retire = c.issue
	return c
}

// slots is an in-order bandwidth counter of width instructions per cycle.
// It keeps the slot count cycle*width + rem as a (cycle, remainder) pair
// with 0 ≤ rem < width, so reading the current cycle needs no division, and
// charges an op through split, each op's instruction count pre-divided by
// the width, so charging needs none either.
type slots struct {
	width int64
	cycle int64
	rem   int64
	split *opSplit
}

// opSplit holds, for every trace.Op.N, the op's instruction count n
// divided by a width: n = cycles*width + rem, 0 ≤ rem < width. N is a
// uint8, so 256 entries cover every op whatever the width.
type opSplit [256]struct{ cycles, rem int64 }

func newSlots(width int) slots {
	s := slots{width: int64(width), split: new(opSplit)}
	for n := range s.split {
		op := trace.Op{N: uint8(n)}
		instr := op.Instructions()
		s.split[n].cycles, s.split[n].rem = instr/s.width, instr%s.width
	}
	return s
}

// take charges op n's instructions starting no earlier than cycle t.
func (s *slots) take(t int64, n uint8) {
	if t > s.cycle {
		s.cycle, s.rem = t, 0
	}
	d := &s.split[n]
	s.cycle += d.cycles
	s.rem += d.rem
	if s.rem >= s.width {
		s.cycle++
		s.rem -= s.width
	}
}

// NewOoO prepares a speculative out-of-order replay of tr on ms. opts must
// have passed Validate.
func NewOoO(cfg Config, opts OoOOptions, ms *memsys.MemSys, tr *trace.Trace) *Core {
	c := NewInterval(cfg, ms, tr)
	pred, err := newPredictor(opts.Predictor)
	if err != nil {
		// Unreachable when opts passed Validate; fail deterministically
		// rather than limp on without a predictor.
		panic(fmt.Sprintf("cpu: %v", err))
	}
	c.pred = pred
	c.penalty = mispredictPenalty
	c.wpDepth = wrongPathDepth
	return c
}

// Done reports whether the whole trace has been replayed.
func (c *Core) Done() bool { return c.pos >= len(c.tr.Ops) }

// Now returns a monotonically non-decreasing lower bound on the core's
// current cycle (the last issue time); the epoch-barrier engine interleaves
// cores by it.
func (c *Core) Now() int64 { return c.lastIssue }

// Step replays up to n ops and returns the number replayed.
func (c *Core) Step(n int) int {
	return c.step(n, 1<<62)
}

// StepUntil replays ops until the core's issue clock reaches horizon (or the
// trace ends) and returns the number replayed. The horizon is checked before
// each op, so a core whose clock is already past it replays nothing, while a
// core behind it always makes progress — the epoch-barrier engine relies on
// both properties. The clock may overshoot the horizon by the last op's
// issue-stall; the engine's barrier ordering does not depend on where within
// an epoch a request was issued.
func (c *Core) StepUntil(horizon int64) int {
	return c.step(len(c.tr.Ops), horizon)
}

func (c *Core) step(n int, horizon int64) int {
	ops := c.tr.Ops
	window := int64(c.cfg.Window)
	mask := c.ringMask
	spec := c.pred != nil
	done := 0
	for done < n && c.pos < len(ops) && c.lastIssue < horizon {
		i := c.pos
		op := &ops[i]
		c.pos++
		done++
		if op.Kind == trace.Branch && !spec {
			// No control flow without a predictor: the branch is free
			// and invisible (see the type comment).
			continue
		}
		di := c.dense
		instr := op.Instructions()
		cum := c.cumInstr + instr

		// Issue bandwidth: Width instructions per cycle, in order. Any
		// pending fetch redirect also gates entry into the window.
		t := c.issue.cycle
		if t < c.redirectAt {
			t = c.redirectAt
		}
		if t < c.lastIssue {
			t = c.lastIssue
		}
		// Window occupancy: instructions after the window tail must fit.
		for cum-c.cumRing[c.windowTail&mask] > window && c.windowTail < di {
			if r := c.retireRing[c.windowTail&mask]; r > t {
				t = r
			}
			c.windowTail++
		}
		c.issue.take(t, op.N)
		c.lastIssue = t

		// Execute when the producer's value is ready.
		exec := t
		if op.Dep >= 0 {
			if d := c.complete[op.Dep]; d > exec {
				exec = d
			}
		}

		var comp int64
		switch op.Kind {
		case trace.Compute:
			// One cycle per Width instructions, at least one.
			comp = exec + max(1, c.issue.split[op.N].cycles)
		case trace.Load:
			comp = c.ms.Access(op.Addr, op.PC, true, op.LDS, exec)
			if spec {
				c.lastAddr = op.Addr
				if op.LDS {
					// The loaded value of a pointer-chase load is the
					// next pointer — the seed wrong-path fetches chase.
					// Only a misprediction reads it (see ptrPending).
					c.ptrAddr, c.ptrPending = op.Addr, true
				}
			}
		case trace.Store:
			// A store over any byte of the pending pointer would change
			// the value the load returned: take it first. Both words are
			// 4 bytes, so they overlap iff op.Addr-ptrAddr is in [-3, 3]
			// (mod 2^32, as the byte addresses wrap).
			if c.ptrPending && op.Addr-c.ptrAddr+3 < 7 {
				c.loadPtr()
			}
			// Apply the store's value in program order so block scans see
			// time-accurate contents, then access for timing side effects.
			c.ms.Mem().Write32(op.Addr, op.Val)
			c.ms.Access(op.Addr, op.PC, false, false, exec)
			comp = exec + 1 // store buffer: retirement does not wait
		case trace.Branch:
			// Resolve one cycle after the condition is available.
			comp = exec + 1
			c.branches++
			predicted := c.pred.predict(op.PC)
			c.pred.update(op.PC, op.Taken)
			if predicted != op.Taken {
				c.mispredicts++
				if redirect := comp + c.penalty; redirect > c.redirectAt {
					c.redirectAt = redirect
				}
				c.injectWrongPath(comp)
			}
		}
		c.complete[i] = comp

		// Retire: in order, Width instructions per cycle.
		r := comp
		if c.lastRetire > r {
			r = c.lastRetire
		}
		if lb := c.retire.cycle; lb > r {
			r = lb
		}
		c.retire.take(r, op.N)
		c.lastRetire = r

		c.retireRing[di&mask] = r
		c.cumRing[di&mask] = cum
		c.cumInstr = cum
		c.dense++
	}
	return done
}

// loadPtr reads the pending pointer-chase load's value into lastPtr.
func (c *Core) loadPtr() {
	c.lastPtr = c.ms.Mem().Read32(c.ptrAddr)
	c.ptrPending = false
}

// injectWrongPath issues the speculative loads the front end fetched past a
// mispredicted branch, spread over the refill shadow [resolve, resolve +
// penalty]. Addresses alternate between chasing the last linked-structure
// pointer through simulated memory (wrong-path traversal continuation) and
// sequential next-block fetch from the last demand address (wrong-path
// straight-line code), both deterministic functions of program state.
func (c *Core) injectWrongPath(resolve int64) {
	if c.wpDepth == 0 {
		return
	}
	step := c.penalty / int64(c.wpDepth)
	if step < 1 {
		step = 1
	}
	if c.ptrPending {
		c.loadPtr()
	}
	blk := uint32(c.ms.BlockSize())
	chase := c.lastPtr
	seq := c.lastAddr
	for k := 0; k < c.wpDepth; k++ {
		at := resolve + 1 + int64(k)*step
		if k%2 == 0 && chase != 0 {
			c.ms.AccessWrongPath(chase, at)
			chase = c.ms.Mem().Read32(chase &^ 3)
			continue
		}
		if seq == 0 {
			continue
		}
		seq += blk
		c.ms.AccessWrongPath(seq, at)
	}
}

// Result returns the run summary (valid once Done).
func (c *Core) Result() Result {
	return Result{
		Cycles:      c.lastRetire,
		Retired:     c.cumInstr,
		Branches:    c.branches,
		Mispredicts: c.mispredicts,
	}
}
