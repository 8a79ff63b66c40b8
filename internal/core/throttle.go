package core

import (
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/telemetry"
)

// Thresholds are the coordinated-throttling thresholds of paper Table 4.
type Thresholds struct {
	// TCoverage separates high from low coverage.
	TCoverage float64
	// ALow and AHigh split accuracy into low / medium / high.
	ALow, AHigh float64
}

// DefaultThresholds returns the paper's empirically chosen values.
func DefaultThresholds() Thresholds {
	return Thresholds{TCoverage: 0.2, ALow: 0.4, AHigh: 0.7}
}

// Decision is one throttling outcome of Table 3.
type Decision int

const (
	// DoNothing leaves the aggressiveness unchanged (case 5).
	DoNothing Decision = iota
	// ThrottleUp raises aggressiveness one level (cases 1, 3).
	ThrottleUp
	// ThrottleDown lowers aggressiveness one level (cases 2, 4).
	ThrottleDown
)

func (d Decision) String() string {
	switch d {
	case ThrottleUp:
		return "up"
	case ThrottleDown:
		return "down"
	default:
		return "nothing"
	}
}

// DecideCase implements the heuristic table (paper Table 3) for one deciding
// prefetcher given its own coverage and accuracy and the rival prefetcher's
// coverage, and returns the decision with the row that fired (1-5), for
// telemetry and analysis. The table, reproduced:
//
//	case  own-coverage  own-accuracy    rival-coverage  decision
//	1     High          -               -               Throttle Up
//	2     Low           Low             -               Throttle Down
//	3     Low           Medium or High  Low             Throttle Up
//	4     Low           Low or Medium   High            Throttle Down
//	5     Low           High            High            Do Nothing
func DecideCase(th Thresholds, ownCov, ownAcc, rivalCov float64) (Decision, int) {
	if ownCov >= th.TCoverage {
		return ThrottleUp, 1
	}
	accLow := ownAcc < th.ALow
	accHigh := ownAcc >= th.AHigh
	rivalHigh := rivalCov >= th.TCoverage
	switch {
	case accLow:
		return ThrottleDown, 2
	case !rivalHigh:
		return ThrottleUp, 3 // accuracy medium or high
	case !accHigh:
		return ThrottleDown, 4 // accuracy medium, rival high
	default:
		return DoNothing, 5 // accuracy high, rival high
	}
}

type throttled struct {
	src prefetch.Source
	t   prefetch.Throttleable
}

// Throttler coordinates the aggressiveness of multiple prefetchers using the
// shared feedback counters. Hook Install onto a Feedback to run a decision
// round at every interval boundary.
//
// Per Section 4.2, the scheme is prefetcher-symmetric and prefetcher-
// agnostic: every registered prefetcher decides from its own
// coverage/accuracy and the maximum coverage among its rivals, so more than
// two prefetchers compose naturally.
type Throttler struct {
	th  Thresholds
	fb  *prefetch.Feedback
	pfs []throttled

	// Trace, if non-nil, receives one ThrottleEvent per decision — the
	// heuristic case that fired, its inputs, and the level transition.
	Trace *telemetry.Trace
}

// NewThrottler builds a throttler over fb with thresholds th.
func NewThrottler(th Thresholds, fb *prefetch.Feedback) *Throttler {
	return &Throttler{th: th, fb: fb}
}

// Add registers a prefetcher to be throttled.
func (t *Throttler) Add(src prefetch.Source, p prefetch.Throttleable) {
	t.pfs = append(t.pfs, throttled{src, p})
}

// Install arranges for Round to run at every feedback interval boundary.
func (t *Throttler) Install() { t.fb.ObserveIntervals(t.Round) }

// roundDecision is one prefetcher's outcome within a decision round.
type roundDecision struct {
	d                        Decision
	tableCase                int
	ownCov, ownAcc, rivalCov float64
}

// Round performs one coordinated decision round: all decisions are computed
// from the same interval snapshot, then applied simultaneously.
func (t *Throttler) Round() {
	decisions := make([]roundDecision, len(t.pfs))
	for i, p := range t.pfs {
		ownCov := t.fb.Coverage(p.src)
		ownAcc := t.fb.Accuracy(p.src)
		rivalCov := 0.0
		for j, r := range t.pfs {
			if j == i {
				continue
			}
			if c := t.fb.Coverage(r.src); c > rivalCov {
				rivalCov = c
			}
		}
		d, tc := DecideCase(t.th, ownCov, ownAcc, rivalCov)
		decisions[i] = roundDecision{d, tc, ownCov, ownAcc, rivalCov}
	}
	for i, rd := range decisions {
		p := t.pfs[i].t
		old := p.Level()
		switch rd.d {
		case ThrottleUp:
			p.SetLevel(old + 1)
		case ThrottleDown:
			p.SetLevel(old - 1)
		}
		if t.Trace != nil {
			t.Trace.Events = append(t.Trace.Events, telemetry.ThrottleEvent{
				Interval: t.fb.Intervals() - 1,
				Src:      t.pfs[i].src,
				Case:     rd.tableCase,
				OwnCov:   rd.ownCov,
				OwnAcc:   rd.ownAcc,
				RivalCov: rd.rivalCov,
				Decision: rd.d.String(),
				OldLevel: old,
				NewLevel: p.Level(),
			})
		}
	}
}
