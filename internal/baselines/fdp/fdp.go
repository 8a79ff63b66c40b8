// Package fdp implements the feedback-directed prefetching baseline
// (Srinath et al., HPCA 2007) compared against in paper Section 6.5: each
// prefetcher is throttled *individually* from its own accuracy, lateness and
// pollution — six thresholds in total — with no knowledge of the other
// prefetchers. The paper's coordinated throttling outperforms FDP precisely
// because FDP cannot tell whether a prefetcher performs poorly on its own or
// because a rival interferes with it.
//
// Pollution is FDP's input alone, so the controller attributes it itself,
// from the memory system's outcome events (OnOutcome).
package fdp

import (
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

// Thresholds are FDP's six tuning knobs.
type Thresholds struct {
	// AHigh / ALow split accuracy into high / medium / low.
	AHigh, ALow float64
	// TLateness is the late fraction (late / used) above which prefetches
	// are considered late.
	TLateness float64
	// TPollution is the pollution rate (polluting evictions per demand
	// miss) above which the prefetcher is considered polluting.
	TPollution float64
	// Up/Down hysteresis: consecutive intervals required before acting.
	UpStreak, DownStreak int
}

// DefaultThresholds returns values adapted from Srinath et al. to this
// simulator's interval definition.
func DefaultThresholds() Thresholds {
	return Thresholds{
		AHigh:      0.75,
		ALow:       0.40,
		TLateness:  0.40,
		TPollution: 0.01,
		UpStreak:   1,
		DownStreak: 1,
	}
}

type controlled struct {
	src    prefetch.Source
	t      prefetch.Throttleable
	streak int
}

// pollutionWindow is how many prefetch displacements the controller
// remembers: a demand miss to a block displaced longer ago is not pollution.
const pollutionWindow = 4096

// displacement is the remembered displacer of one block. refs counts the
// ring slots naming the block: a block displaced twice within the window
// holds two slots and one entry, so recycling the older slot cannot drop the
// attribution the newer slot still covers.
type displacement struct {
	src  prefetch.Source
	refs int
}

// Controller throttles each registered prefetcher individually.
type Controller struct {
	th  Thresholds
	fb  *prefetch.Feedback
	pfs []controlled

	// displacedBy maps each block in ring, the last pollutionWindow
	// prefetch displacements (0 = empty slot; no simulated block sits at
	// address 0), to the prefetcher that displaced it. It is never ranged.
	displacedBy map[uint32]displacement
	ring        []uint32
	pos         int
	// pollution counts, per prefetcher, demand misses to blocks it
	// displaced; Round folds it at each interval (Equation 3).
	pollution [prefetch.NumSources]prefetch.Counter
}

// NewController builds an FDP controller over fb. Subscribe OnOutcome to the
// memory system whose feedback fb is, so the controller sees pollution.
func NewController(th Thresholds, fb *prefetch.Feedback) *Controller {
	return &Controller{
		th:          th,
		fb:          fb,
		displacedBy: make(map[uint32]displacement),
		ring:        make([]uint32, pollutionWindow),
	}
}

// OnOutcome attributes pollution: a demand miss to a block a prefetch fill
// displaced within the window counts once against that prefetcher. The
// entry is then marked SrcDemand rather than deleted (its ring slots still
// name it), so further misses do not re-count until it is displaced again.
func (c *Controller) OnOutcome(ev memsys.OutcomeEvent) {
	switch ev.Kind {
	case memsys.DisplacedByPrefetch:
		if old := c.ring[c.pos]; old != 0 {
			if d := c.displacedBy[old]; d.refs > 1 {
				d.refs--
				c.displacedBy[old] = d
			} else {
				delete(c.displacedBy, old)
			}
		}
		c.ring[c.pos] = ev.BlockAddr
		c.pos = (c.pos + 1) % len(c.ring)
		d := c.displacedBy[ev.BlockAddr]
		c.displacedBy[ev.BlockAddr] = displacement{src: ev.Src, refs: d.refs + 1}
	case memsys.DemandMiss:
		if d, ok := c.displacedBy[ev.BlockAddr]; ok && d.src.IsPrefetch() {
			c.pollution[d.src].Inc()
			d.src = prefetch.SrcDemand
			c.displacedBy[ev.BlockAddr] = d
		}
	}
}

// Add registers a prefetcher for individual throttling.
func (c *Controller) Add(src prefetch.Source, t prefetch.Throttleable) {
	c.pfs = append(c.pfs, controlled{src: src, t: t})
}

// Install hooks the controller onto the feedback interval boundary.
func (c *Controller) Install() {
	prev := c.fb.OnInterval
	c.fb.OnInterval = func() {
		if prev != nil {
			prev()
		}
		c.Round()
	}
}

// Round applies the FDP rule table to each prefetcher in isolation:
//
//	accuracy high  & late          → throttle up
//	accuracy high  & not late      → no change
//	accuracy medium& late          → throttle up
//	accuracy medium& polluting     → throttle down
//	accuracy medium& otherwise     → no change
//	accuracy low                   → throttle down
//
// It first folds the interval's pollution counts, so it must run once per
// interval (Install hooks it on the interval boundary).
func (c *Controller) Round() {
	for i := range c.pollution {
		c.pollution[i].EndInterval()
	}
	for i := range c.pfs {
		p := &c.pfs[i]
		st := &c.fb.Sources[p.src]
		acc := c.fb.Accuracy(p.src)
		late := 0.0
		if st.Used.Value() > 0 {
			late = st.Late.Value() / st.Used.Value()
		}
		pol := 0.0
		if m := c.fb.DemandMisses.Value(); m > 0 {
			pol = c.pollution[p.src].Value() / m
		}
		var dir int
		switch {
		case acc >= c.th.AHigh:
			if late > c.th.TLateness {
				dir = 1
			}
		case acc >= c.th.ALow:
			if late > c.th.TLateness {
				dir = 1
			} else if pol > c.th.TPollution {
				dir = -1
			}
		default:
			dir = -1
		}
		switch {
		case dir > 0:
			p.streak++
			if p.streak >= c.th.UpStreak {
				p.t.SetLevel(p.t.Level() + 1)
				p.streak = 0
			}
		case dir < 0:
			p.streak--
			if -p.streak >= c.th.DownStreak {
				p.t.SetLevel(p.t.Level() - 1)
				p.streak = 0
			}
		default:
			p.streak = 0
		}
	}
}
