// Package cpu is the core timing model that replays a dependence-annotated
// trace against a memory hierarchy.
//
// One Core type runs both models selectable per run through the `core`
// field of sim.Spec (decoded in internal/sim); they share a single
// issue/window/execute/retire loop and differ only in whether a branch
// predictor is attached:
//
//   - "interval" (NewInterval, the default, no predictor) — a
//     dependence-graph simulation with in-order issue (up to Width
//     instructions per cycle into a Window-entry instruction window),
//     out-of-order completion (an op executes when its producer's value is
//     ready), and in-order retire. It models no control flow: branch ops
//     are skipped for free, there is no speculation and no wrong-path
//     memory traffic. This reproduces the first-order property prefetching
//     studies depend on — independent (streaming) misses overlap up to the
//     window/MSHR limits while dependent (pointer-chasing) misses
//     serialize — at dependence-graph cost.
//   - "ooo" (NewOoO, with a predictor) — the same loop plus a speculative
//     front end: fetch at the issue width, every branch predicted at fetch
//     (bimodal or a small TAGE variant) and resolved one cycle after its
//     condition producer completes, a 15-cycle fetch-redirect penalty after
//     each misprediction, and four wrong-path memory accesses per
//     misprediction that genuinely reach the memory system (consuming
//     MSHRs and DRAM bandwidth, polluting caches) before being squashed at
//     resolve. Wrong-path addresses are
//     synthesized deterministically from the program's own state (the last
//     pointer value loaded from a linked structure, chased through
//     simulated memory, alternating with sequential next-block
//     continuation), so wrong-path traffic has the locality structure of
//     the program it shadows rather than random noise.
//
// On a branch-free trace the two models are identical
// (TestOoOMatchesIntervalWithoutBranches). Everything is deterministic:
// prediction, resolve times, and wrong-path addresses are pure functions of
// the trace and configuration, so serial and parallel epoch-barrier engine
// runs produce identical reports.
//
// Trace ops may batch several compute instructions (trace.Op.N); all
// accounting — issue bandwidth, window occupancy, retire bandwidth, retired
// instruction counts — is done in instruction slots, so batching changes
// nothing but trace compactness.
package cpu

import (
	"fmt"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/trace"
)

// Config parameterizes a core.
type Config struct {
	// Window is the instruction window size (paper: 256).
	Window int
	// Width is the issue/retire width in instructions per cycle (paper: 4).
	Width int
}

// DefaultConfig returns the paper's baseline core.
func DefaultConfig() Config { return Config{Window: 256, Width: 4} }

// Bounds on Config, so that a configuration from an untrusted source (a
// spec's cpu_cfg) cannot make a core allocate without limit: the window
// sizes two rings of the next power of two ≥ Window+2 entries.
const (
	MaxWindow = 1 << 16
	MaxWidth  = 1 << 10
)

// Validate checks that Window is in [0, MaxWindow] and Width in [0,
// MaxWidth]. Zero selects the default (256 and 4).
func (c Config) Validate() error {
	if c.Window < 0 || c.Window > MaxWindow {
		return fmt.Errorf("cpu_cfg: Window must be in [0, %d] (0 selects 256), got %d", MaxWindow, c.Window)
	}
	if c.Width < 0 || c.Width > MaxWidth {
		return fmt.Errorf("cpu_cfg: Width must be in [0, %d] (0 selects 4), got %d", MaxWidth, c.Width)
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	// Cycles is the total execution time.
	Cycles int64
	// Retired is the number of retired instructions.
	Retired int64
	// Branches and Mispredicts count conditional branches retired and
	// mispredicted. The interval model ignores branch ops entirely, so
	// both stay zero there; only the speculative model populates them.
	Branches    int64
	Mispredicts int64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// Run replays tr to completion on ms under the interval model and returns
// the result. Profiling and hint collection use this directly; simulation
// paths build the core sim.Spec selects instead.
func Run(cfg Config, ms *memsys.MemSys, tr *trace.Trace) Result {
	c := NewInterval(cfg, ms, tr)
	for !c.Done() {
		c.Step(1 << 20)
	}
	ms.FlushAccounting()
	return c.Result()
}
