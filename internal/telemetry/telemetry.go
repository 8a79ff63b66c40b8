// Package telemetry records the interval-level behaviour of a run: a
// per-interval time series of the feedback counters the paper's throttling
// heuristic consumes (smoothed accuracy and coverage per Equation 3,
// prefetches issued and used, demand misses, bus traffic, queue occupancies)
// and a structured event log of every throttle decision (which of Table 3's
// five cases fired, and the inputs that triggered it).
//
// Recording is opt-in and observation-only: a nil *Trace disables every
// recording site with a single pointer check, and an installed Recorder only
// reads simulator state — it never mutates caches, queues, or counters — so
// a traced run produces bit-identical metrics to an untraced one.
//
// The JSONL schemas these records serialize to are documented field-by-field
// in OBSERVABILITY.md; internal/exp owns the serialization.
package telemetry

import "ldsprefetch/internal/prefetch"

// IntervalRecord is one row of the per-interval time series, cut at every
// feedback interval boundary (a fixed number of L2 evictions, paper: 8192)
// immediately before that boundary's throttling decisions are made. Counter
// fields ending in "delta" semantics (DemandMisses, Issued, Used,
// BusTransfers) count events during this interval only; Accuracy and
// Coverage are the Equation 3 smoothed values as of the fold — exactly the
// inputs the throttler sees at this boundary.
type IntervalRecord struct {
	// Interval is the 0-based index of the just-closed interval.
	Interval int
	// Cycle is the timestamp of the L2 eviction that closed the interval.
	Cycle int64
	// Retired is the cumulative retired-instruction count at the boundary.
	Retired int64
	// DemandMisses counts L2 demand misses during the interval.
	DemandMisses int64
	// BusTransfers counts bus block transfers during the interval
	// (controller-global: in multi-core runs this is shared traffic).
	BusTransfers int64
	// BPKI is BusTransfers per 1000 instructions retired this interval.
	BPKI float64
	// ReqBuf is the DRAM request-buffer occupancy at the boundary.
	ReqBuf int
	// PFBacklog is the cycles of low-priority (prefetch/writeback) bus work
	// queued beyond all demand work at the boundary.
	PFBacklog int64
	// MSHR is the number of L2 MSHRs still awaiting fills at the boundary.
	MSHR int
	// PFQueue is the number of outstanding prefetch fills at the boundary.
	PFQueue int

	// Issued / Used count prefetches issued / first-used during the
	// interval, per source.
	Issued [prefetch.NumSources]int64
	Used   [prefetch.NumSources]int64
	// Accuracy / Coverage are the smoothed per-source metrics (Equations
	// 1-3) after the interval fold.
	Accuracy [prefetch.NumSources]float64
	Coverage [prefetch.NumSources]float64
	// Level is each source's aggressiveness level (paper Table 2, 0-3)
	// during the interval, i.e. before this boundary's decision applies;
	// -1 for sources without a throttleable prefetcher attached.
	Level [prefetch.NumSources]int8
}

// ThrottleEvent records one coordinated-throttling decision (one prefetcher
// in one decision round) with the inputs that selected the heuristic case.
type ThrottleEvent struct {
	// Interval is the index of the interval whose counters fed the decision.
	Interval int
	// Src is the deciding prefetcher.
	Src prefetch.Source
	// Case is the row of paper Table 3 that fired (1-5).
	Case int
	// OwnCov, OwnAcc, RivalCov are the smoothed inputs to the heuristic:
	// the decider's coverage and accuracy, and the maximum rival coverage.
	OwnCov, OwnAcc, RivalCov float64
	// Decision is the outcome ("up", "down", "nothing").
	Decision string
	// OldLevel and NewLevel are the aggressiveness levels before and after
	// the decision was applied (equal when the level was already clamped).
	OldLevel, NewLevel prefetch.AggLevel
}

// Trace accumulates one run's telemetry. A nil *Trace means tracing is
// disabled; all recording sites gate on that.
type Trace struct {
	// Benchmark and Setup label the run.
	Benchmark string
	Setup     string
	// Sources lists the attached prefetchers in attach order; exporters use
	// it to emit only meaningful per-source columns.
	Sources []prefetch.Source
	// Intervals is the time series, one record per completed interval.
	Intervals []IntervalRecord
	// Events is the throttle-decision log in decision order.
	Events []ThrottleEvent
}

// Recorder cuts an IntervalRecord at every feedback interval boundary. The
// assembler (internal/sim) wires the gauge hooks; all of them must be pure
// reads of simulator state.
type Recorder struct {
	// Trace receives the records.
	Trace *Trace

	// Retired returns the cumulative retired-instruction count.
	Retired func() int64
	// BusTransfers returns the cumulative controller bus-transfer count.
	BusTransfers func() int64
	// ReqBuf returns the request-buffer occupancy at cycle t.
	ReqBuf func(t int64) int
	// PFBacklog returns the low-priority bus backlog at cycle t.
	PFBacklog func(t int64) int64
	// MSHR and PFQueue return the L2 miss/prefetch fill occupancies at t.
	MSHR    func(t int64) int
	PFQueue func(t int64) int
	// Level returns the aggressiveness level of src, or -1 if src has no
	// throttleable prefetcher.
	Level func(src prefetch.Source) int8

	fb *prefetch.Feedback

	// Previous cumulative totals, for per-interval deltas.
	prevIssued [prefetch.NumSources]float64
	prevUsed   [prefetch.NumSources]float64
	prevMisses float64
	prevBus    int64
	prevRet    int64
}

// NewRecorder builds a recorder appending to t from fb's counters.
func NewRecorder(t *Trace, fb *prefetch.Feedback) *Recorder {
	return &Recorder{Trace: t, fb: fb}
}

// Install subscribes the recorder to fb's interval boundaries. Install the
// recorder before any throttling controller so each record is cut from the
// same snapshot the controllers decide on, before their decisions apply.
func (r *Recorder) Install() { r.fb.ObserveIntervals(r.cut) }

// cut appends one IntervalRecord for the just-closed interval.
func (r *Recorder) cut() {
	fb := r.fb
	rec := IntervalRecord{
		Interval: fb.Intervals() - 1,
		Cycle:    fb.LastEvictionAt(),
	}
	misses := fb.DemandMisses.Raw()
	rec.DemandMisses = int64(misses - r.prevMisses)
	r.prevMisses = misses
	for src := prefetch.Source(0); src < prefetch.NumSources; src++ {
		s := &fb.Sources[src]
		iss, used := s.Issued.Raw(), s.Used.Raw()
		rec.Issued[src] = int64(iss - r.prevIssued[src])
		rec.Used[src] = int64(used - r.prevUsed[src])
		r.prevIssued[src], r.prevUsed[src] = iss, used
		rec.Accuracy[src] = fb.Accuracy(src)
		rec.Coverage[src] = fb.Coverage(src)
		rec.Level[src] = -1
		if r.Level != nil {
			rec.Level[src] = r.Level(src)
		}
	}
	if r.Retired != nil {
		rec.Retired = r.Retired()
	}
	if r.BusTransfers != nil {
		bus := r.BusTransfers()
		rec.BusTransfers = bus - r.prevBus
		r.prevBus = bus
	}
	if dRet := rec.Retired - r.prevRet; dRet > 0 {
		rec.BPKI = float64(rec.BusTransfers) / (float64(dRet) / 1000)
	}
	r.prevRet = rec.Retired
	if r.ReqBuf != nil {
		rec.ReqBuf = r.ReqBuf(rec.Cycle)
	}
	if r.PFBacklog != nil {
		rec.PFBacklog = r.PFBacklog(rec.Cycle)
	}
	if r.MSHR != nil {
		rec.MSHR = r.MSHR(rec.Cycle)
	}
	if r.PFQueue != nil {
		rec.PFQueue = r.PFQueue(rec.Cycle)
	}
	r.Trace.Intervals = append(r.Trace.Intervals, rec)
}
