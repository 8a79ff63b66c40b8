// Package pab implements the multi-prefetcher selection baseline of Gendler
// et al. (paper Section 7.4): all prefetchers but the most accurate one are
// turned *off* (not throttled), based solely on recent per-prefetcher
// accuracy. The paper shows this simplistic policy loses 11% performance
// because it ignores coverage, can disable a high-coverage prefetcher in
// favour of an accurate but useless one, and cannot capture inter-prefetcher
// interaction.
package pab

import "ldsprefetch/internal/prefetch"

// Switchable is a prefetcher that can be turned on and off.
type Switchable interface {
	SetEnabled(on bool)
}

type member struct {
	src prefetch.Source
	s   Switchable
}

// Selector enables only the most accurate prefetcher at each interval.
type Selector struct {
	fb      *prefetch.Feedback
	members []member
}

// NewSelector builds a PAB-style selector over fb.
func NewSelector(fb *prefetch.Feedback) *Selector {
	return &Selector{fb: fb}
}

// Add registers a switchable prefetcher.
func (s *Selector) Add(src prefetch.Source, sw Switchable) {
	s.members = append(s.members, member{src, sw})
}

// Install hooks the selector onto the feedback interval boundary.
func (s *Selector) Install() { s.fb.ObserveIntervals(s.Round) }

// Round picks the winner by smoothed accuracy and disables the rest.
func (s *Selector) Round() {
	if len(s.members) == 0 {
		return
	}
	best, bestAcc := 0, -1.0
	for i, m := range s.members {
		// Only prefetchers that actually issued something compete;
		// an idle prefetcher's default accuracy of 1 must not win.
		acc := 0.0
		if s.fb.Sources[m.src].Issued.Value() > 0 {
			acc = s.fb.Accuracy(m.src)
		}
		if acc > bestAcc {
			best, bestAcc = i, acc
		}
	}
	for i, m := range s.members {
		m.s.SetEnabled(i == best)
	}
}
