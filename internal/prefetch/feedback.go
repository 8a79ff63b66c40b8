package prefetch

// Counter is an interval-smoothed event counter implementing the paper's
// Equation 3:
//
//	CounterValue = ½·CounterValueAtBeginningOfInterval + ½·CounterValueDuringInterval
//
// Add accumulates events in the current interval; EndInterval folds the
// interval into the smoothed value. Value returns the smoothed value used
// for throttling decisions in the *following* interval, and Raw returns the
// all-time total (used for end-of-run statistics).
type Counter struct {
	smoothed float64
	during   float64
	total    float64
}

// Add records n events in the current interval.
func (c *Counter) Add(n float64) {
	c.during += n
	c.total += n
}

// Inc records one event.
func (c *Counter) Inc() { c.Add(1) }

// EndInterval folds the current interval into the smoothed value.
func (c *Counter) EndInterval() {
	c.smoothed = 0.5*c.smoothed + 0.5*c.during
	c.during = 0
}

// Value returns the smoothed counter value (Equation 3 state).
func (c *Counter) Value() float64 { return c.smoothed }

// Raw returns the all-time total.
func (c *Counter) Raw() float64 { return c.total }

// SourceStats holds the feedback counters for one prefetcher, as described
// in paper Section 4.1, plus the lateness counter needed by the FDP baseline
// (Srinath et al., HPCA 2007). FDP counts pollution itself
// (internal/baselines/fdp).
type SourceStats struct {
	// Issued counts prefetch requests sent to memory ("total-prefetched").
	Issued Counter
	// Used counts prefetched blocks consumed by demand requests
	// ("total-used").
	Used Counter
	// Late counts demand requests that found their block still in flight
	// from this prefetcher (prefetch too late to fully hide latency).
	Late Counter
}

// Feedback aggregates the per-prefetcher counters and the shared demand-miss
// counter, and manages the sampling interval (paper: an interval ends after
// a fixed number of L2 evictions, 8192 by default).
type Feedback struct {
	// Sources holds counters for every request source; only prefetcher
	// entries are meaningful.
	Sources [NumSources]SourceStats
	// DemandMisses counts last-level-cache demand misses ("total-misses").
	DemandMisses Counter

	evictionsInInterval int
	intervalLen         int
	intervals           int
	lastEvictionAt      int64
	intervalObs         []func() // in subscription order (ObserveIntervals)
}

// NewFeedback returns feedback state with the given interval length in L2
// evictions (<=0 selects the paper's 8192).
func NewFeedback(intervalLen int) *Feedback {
	if intervalLen <= 0 {
		intervalLen = 8192
	}
	return &Feedback{intervalLen: intervalLen}
}

// ObserveIntervals subscribes fn to every interval boundary; it runs after
// the counters are folded. Subscribers run in subscription order: the
// telemetry recorder subscribes before the throttling policies, so each
// record holds the inputs of the decisions that follow it.
func (f *Feedback) ObserveIntervals(fn func()) {
	f.intervalObs = append(f.intervalObs, fn)
}

// EvictionAt notes one L2 eviction at cycle now and closes the interval when
// the threshold is reached. The timestamp lets interval telemetry place the
// boundary in time.
func (f *Feedback) EvictionAt(now int64) {
	if now > f.lastEvictionAt {
		f.lastEvictionAt = now
	}
	f.evictionsInInterval++
	if f.evictionsInInterval >= f.intervalLen {
		f.evictionsInInterval = 0
		f.intervals++
		for i := range f.Sources {
			s := &f.Sources[i]
			s.Issued.EndInterval()
			s.Used.EndInterval()
			s.Late.EndInterval()
		}
		f.DemandMisses.EndInterval()
		for _, fn := range f.intervalObs {
			fn()
		}
	}
}

// Intervals returns the number of completed intervals.
func (f *Feedback) Intervals() int { return f.intervals }

// LastEvictionAt returns the cycle of the most recent timestamped eviction
// (the closing eviction's cycle, when read by an interval subscriber).
func (f *Feedback) LastEvictionAt() int64 { return f.lastEvictionAt }

// Accuracy returns the smoothed prefetch accuracy of src:
// used / issued (paper Equation 1). Returns 1 when nothing was issued, so an
// idle prefetcher is never classified low-accuracy.
func (f *Feedback) Accuracy(src Source) float64 {
	s := &f.Sources[src]
	if s.Issued.Value() == 0 {
		return 1
	}
	a := s.Used.Value() / s.Issued.Value()
	if a > 1 {
		a = 1
	}
	return a
}

// Coverage returns the smoothed prefetch coverage of src:
// used / (used + demand misses) (paper Equation 2).
func (f *Feedback) Coverage(src Source) float64 {
	s := &f.Sources[src]
	d := s.Used.Value() + f.DemandMisses.Value()
	if d == 0 {
		return 0
	}
	return s.Used.Value() / d
}

// RawAccuracy returns the all-time accuracy of src.
func (f *Feedback) RawAccuracy(src Source) float64 {
	s := &f.Sources[src]
	if s.Issued.Raw() == 0 {
		return 0
	}
	return s.Used.Raw() / s.Issued.Raw()
}

// RawCoverage returns the all-time coverage of src.
func (f *Feedback) RawCoverage(src Source) float64 {
	s := &f.Sources[src]
	d := s.Used.Raw() + f.DemandMisses.Raw()
	if d == 0 {
		return 0
	}
	return s.Used.Raw() / d
}
