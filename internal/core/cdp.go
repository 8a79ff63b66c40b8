package core

import (
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

// compareBits is the number of high-order address bits that must match
// between a scanned value and the block's address for the value to be
// predicted a pointer (paper: 8).
const compareBits = 8

// CDPConfig parameterizes the content-directed prefetcher.
type CDPConfig struct {
	// BlockSize is the cache block size in bytes.
	BlockSize int
	// Hints, when non-nil, turns original CDP into ECDP: on demand-miss
	// fills only pointers in beneficial pointer groups are prefetched.
	// Recursive (prefetch-fill) scans always prefetch all pointers, per
	// Section 3. Nil reproduces the original Cooksey CDP.
	Hints *HintTable
}

// DefaultCDPConfig returns the paper's CDP parameters (original mode).
func DefaultCDPConfig() CDPConfig {
	return CDPConfig{BlockSize: 64}
}

// CDP is the content-directed prefetcher. It is stateless with respect to
// pointer addresses — it stores no correlation or pointer tables — which is
// exactly why the paper builds on it; all state is the aggressiveness level
// and the (compiler-supplied, read-only) hint table.
type CDP struct {
	cfg        CDPConfig
	issuer     prefetch.Issuer
	level      prefetch.AggLevel
	blockWords int
	// Enabled gates all prefetch generation (PAB baseline support).
	Enabled bool
}

// NewCDP builds a content-directed prefetcher issuing through iss.
func NewCDP(cfg CDPConfig, iss prefetch.Issuer) *CDP {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 64
	}
	return &CDP{
		cfg:        cfg,
		issuer:     iss,
		level:      prefetch.Aggressive,
		blockWords: cfg.BlockSize / 4,
		Enabled:    true,
	}
}

// Name implements memsys.Prefetcher.
func (c *CDP) Name() string {
	if c.cfg.Hints != nil {
		return "ecdp"
	}
	return "cdp"
}

// Source implements memsys.Prefetcher.
func (c *CDP) Source() prefetch.Source { return prefetch.SrcCDP }

// Level implements prefetch.Throttleable.
func (c *CDP) Level() prefetch.AggLevel { return c.level }

// SetLevel implements prefetch.Throttleable. The level maps to the maximum
// recursion depth (paper Table 2).
func (c *CDP) SetLevel(l prefetch.AggLevel) { c.level = l.Clamp() }

// MaxDepth returns the current maximum recursion depth.
func (c *CDP) MaxDepth() int { return prefetch.CDPDepth(c.level) }

// SetEnabled turns prefetch issue on or off (PAB baseline support).
func (c *CDP) SetEnabled(on bool) { c.Enabled = on }

// isPointer implements the virtual-address matching predictor: a value is
// predicted to be a pointer if its high-order compareBits equal those of the
// block's own address (Section 2.2).
func (c *CDP) isPointer(v, blockAddr uint32) bool {
	return v>>(32-compareBits) == blockAddr>>(32-compareBits)
}

// CDP trains on block contents, not on demand accesses.
var _ memsys.FillObserver = (*CDP)(nil)

// OnFill scans an incoming cache block for candidate pointers.
//
// Demand-miss fills (triggered by a load) consult the triggering load's hint
// bit vector when hints are configured: only beneficial pointer groups
// generate prefetches, each attributed to its PG(L, X). CDP-prefetched fills
// are scanned recursively up to the aggressiveness-controlled maximum depth,
// prefetching all pointers. Recursive prefetches belong to no PG: only
// depth-1 prefetches, the ones that directly fetch a pointer of PG(L, X),
// count toward its usefulness, per the paper's Figure 3 ("the set of all
// prefetches generated to prefetch P1, P2, P3 ... form PG1's prefetches").
func (c *CDP) OnFill(ev memsys.FillEvent) {
	if !c.Enabled {
		return
	}
	switch ev.Cause {
	case prefetch.SrcDemand:
		if !ev.TriggerIsLoad {
			return
		}
		var hints HintVec
		useHints := false
		if c.cfg.Hints != nil {
			h, ok := c.cfg.Hints.Lookup(ev.TriggerPC)
			if !ok {
				return // unprofiled load: no beneficial PGs recorded
			}
			if h.Empty() {
				return
			}
			hints, useHints = h, true
		}
		anchor := ev.TriggerOff / 4
		for w := 0; w < c.blockWords && w*4 < len(ev.Data); w++ {
			wordOff := w - anchor
			if useHints && !hints.Allows(wordOff) {
				continue
			}
			v := word(ev.Data, w)
			if !c.isPointer(v, ev.BlockAddr) {
				continue
			}
			c.issuer.Issue(prefetch.Request{
				When:  ev.Now,
				Addr:  v,
				Src:   prefetch.SrcCDP,
				Depth: 1,
				PG:    prefetch.MakePGKey(ev.TriggerPC, wordOff),
			})
		}
	case prefetch.SrcCDP:
		if int(ev.Depth) >= c.MaxDepth() {
			return
		}
		for w := 0; w < c.blockWords && w*4 < len(ev.Data); w++ {
			v := word(ev.Data, w)
			if !c.isPointer(v, ev.BlockAddr) {
				continue
			}
			c.issuer.Issue(prefetch.Request{
				When:  ev.Now,
				Addr:  v,
				Src:   prefetch.SrcCDP,
				Depth: ev.Depth + 1,
			})
		}
	}
}

func word(data []byte, w int) uint32 {
	i := w * 4
	return uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
}
