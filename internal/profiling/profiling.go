// Package profiling implements the paper's compiler profiling step
// (Section 3, "Profiling Implementation", first alternative): the program is
// run once against a simulation of the target cache hierarchy and
// prefetchers, every content-directed prefetch is attributed to its root
// pointer group PG(L, X), and each PG's usefulness — the fraction of its
// prefetches (including recursive ones) that were consumed by demand
// requests — is measured. Pointer groups whose usefulness exceeds 50% are
// classified beneficial; the result is emitted as the per-load hint bit
// vector table the hardware consumes (paper Figure 6).
package profiling

import (
	"sort"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/stream"
	"ldsprefetch/internal/trace"
)

// PGStats is the measured outcome of one pointer group.
type PGStats struct {
	// Useful counts this PG's prefetches consumed by demand accesses.
	Useful int64
	// Useless counts this PG's prefetches evicted (or left) unconsumed.
	Useless int64
}

// Total returns the number of resolved prefetches of the PG.
func (s PGStats) Total() int64 { return s.Useful + s.Useless }

// Usefulness returns the useful fraction in [0, 1].
func (s PGStats) Usefulness() float64 {
	if t := s.Total(); t > 0 {
		return float64(s.Useful) / float64(t)
	}
	return 0
}

// Profile is the result of a profiling run.
type Profile struct {
	// PGs maps each observed pointer group to its statistics.
	PGs map[prefetch.PGKey]PGStats
}

// Collect runs the profiling simulation over tr: the baseline stream
// prefetcher plus an unfiltered CDP, with every prefetch outcome attributed
// to its root PG.
//
// The run consumes tr (stores are applied to its memory image); callers must
// build a fresh trace for any subsequent measurement run.
func Collect(tr *trace.Trace, mcfg memsys.Config, ccfg cpu.Config) *Profile {
	ms := newStack(tr, mcfg)
	p := Attach(ms)
	cpu.Run(ccfg, ms, tr)
	return p
}

// newStack builds the profiling machine over tr's memory image: a private
// one-core DRAM controller and the mcfg hierarchy with the baseline stream
// prefetcher and an unfiltered CDP attached.
func newStack(tr *trace.Trace, mcfg memsys.Config) *memsys.MemSys {
	ms := memsys.New(mcfg, tr.Mem, dram.NewController(dram.DefaultConfig(1)))
	sp := stream.New(32, ms.BlockShift(), ms)
	cdpCfg := core.DefaultCDPConfig()
	cdpCfg.BlockSize = mcfg.BlockSize
	cd := core.NewCDP(cdpCfg, ms)
	ms.Attach(sp)
	ms.Attach(cd)
	return ms
}

// Attach subscribes to ms's prefetch outcomes and returns the profile it
// fills as the run resolves each CDP prefetch that carries a pointer group.
func Attach(ms *memsys.MemSys) *Profile {
	p := &Profile{PGs: make(map[prefetch.PGKey]PGStats)}
	ms.ObserveOutcomes(func(ev memsys.OutcomeEvent) {
		if ev.Src != prefetch.SrcCDP || ev.PG == 0 {
			return
		}
		s := p.PGs[ev.PG]
		switch ev.Kind {
		case memsys.PrefetchUsed:
			s.Useful++
		case memsys.PrefetchUseless:
			s.Useless++
		default:
			return
		}
		p.PGs[ev.PG] = s
	})
	return p
}

// BeneficialThreshold is the paper's classification boundary: PGs with more
// than 50% useful prefetches are beneficial.
const BeneficialThreshold = 0.5

// Hints builds the ECDP hint table: every PG whose usefulness strictly
// exceeds threshold gets its bit set in the owning load's hint vector.
// A non-positive threshold selects BeneficialThreshold.
func (p *Profile) Hints(threshold float64) *core.HintTable {
	if threshold <= 0 {
		threshold = BeneficialThreshold
	}
	t := core.NewHintTable()
	for _, pg := range p.sortedPGs() {
		s := p.PGs[pg]
		if s.Total() == 0 {
			continue
		}
		if s.Usefulness() > threshold {
			t.Mark(pg.PC(), pg.WordOff())
		} else if _, ok := t.Lookup(pg.PC()); !ok {
			// Record the load with an empty vector so ECDP knows it was
			// profiled (and prefetches nothing for it), rather than
			// treating it as unobserved.
			t.Set(pg.PC(), core.HintVec{})
		}
	}
	return t
}

// CoarseHints builds a GRP-style per-load all-or-nothing table (paper
// Section 7.1): a load either prefetches all pointers in blocks it fetches
// or none, decided by the aggregate usefulness of all its PGs. The paper
// found this coarse control nearly useless (0.4% gain), which Section 7.2's
// trigger-load filtering shares.
func (p *Profile) CoarseHints(threshold float64) *core.HintTable {
	if threshold <= 0 {
		threshold = BeneficialThreshold
	}
	type agg struct{ useful, useless int64 }
	byPC := map[uint32]agg{}
	var pcs []uint32
	for _, pg := range p.sortedPGs() {
		s := p.PGs[pg]
		a, seen := byPC[pg.PC()]
		if !seen {
			pcs = append(pcs, pg.PC())
		}
		a.useful += s.Useful
		a.useless += s.Useless
		byPC[pg.PC()] = a
	}
	t := core.NewHintTable()
	full := core.HintVec{Pos: ^uint32(0), Neg: ^uint32(0)}
	for _, pc := range pcs {
		a := byPC[pc]
		if a.useful+a.useless == 0 {
			continue
		}
		if float64(a.useful)/float64(a.useful+a.useless) > threshold {
			t.Set(pc, full)
		} else {
			t.Set(pc, core.HintVec{})
		}
	}
	return t
}

// Histogram buckets PG usefulness into the four bins of paper Figure 10:
// [0,25%), [25,50%), [50,75%), [75,100%].
func (p *Profile) Histogram() [4]int {
	var h [4]int
	//ldslint:ordered commutative bin counters; iteration order cannot change the histogram
	for _, s := range p.PGs {
		if s.Total() == 0 {
			continue
		}
		u := s.Usefulness()
		switch {
		case u < 0.25:
			h[0]++
		case u < 0.5:
			h[1]++
		case u < 0.75:
			h[2]++
		default:
			h[3]++
		}
	}
	return h
}

// BeneficialHarmful counts PGs on each side of the 50% boundary
// (paper Figure 4).
func (p *Profile) BeneficialHarmful() (beneficial, harmful int) {
	//ldslint:ordered commutative counters on each side of the boundary; order-independent
	for _, s := range p.PGs {
		if s.Total() == 0 {
			continue
		}
		if s.Usefulness() > BeneficialThreshold {
			beneficial++
		} else {
			harmful++
		}
	}
	return
}

// sortedPGs returns the profile's pointer-group keys in ascending order, so
// hint-table construction visits PGs deterministically.
func (p *Profile) sortedPGs() []prefetch.PGKey {
	keys := make([]prefetch.PGKey, 0, len(p.PGs))
	for k := range p.PGs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TopPGs returns the n most active pointer groups, most prefetches first
// (deterministic order), for reports and debugging.
func (p *Profile) TopPGs(n int) []prefetch.PGKey {
	keys := make([]prefetch.PGKey, 0, len(p.PGs))
	for k := range p.PGs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ti, tj := p.PGs[keys[i]].Total(), p.PGs[keys[j]].Total()
		if ti != tj {
			return ti > tj
		}
		return keys[i] < keys[j]
	})
	if n < len(keys) {
		keys = keys[:n]
	}
	return keys
}
