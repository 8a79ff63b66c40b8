package jobs

import (
	"sync/atomic"
	"time"
)

// LatencyBuckets are the upper bounds (seconds) of the job-latency
// histogram, chosen for simulation jobs that run milliseconds to minutes.
var LatencyBuckets = []float64{0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300}

// Metrics is a set of scheduler counters safe for concurrent use. One
// Metrics may be shared by several Schedulers (the job service aggregates
// all sweeps into one sink for /metrics); a Scheduler without an explicit
// sink owns a private one.
type Metrics struct {
	// Gauges.
	QueueDepth  atomic.Int64 // jobs waiting for a worker slot
	WorkersBusy atomic.Int64 // jobs currently executing

	// Counters.
	Submitted   atomic.Int64 // jobs submitted (including cache hits)
	Completed   atomic.Int64 // jobs finished successfully (computed or hit)
	Failed      atomic.Int64 // jobs that failed (error, panic or timeout)
	CacheHits   atomic.Int64 // results served from the store
	CacheMisses atomic.Int64 // cacheable jobs that had to compute
	Computed    atomic.Int64 // cacheable simulations and profiles actually executed
	Uncached    atomic.Int64 // uncacheable executions (traced runs)
	Coalesced   atomic.Int64 // duplicate in-flight jobs served by a leader
	Panics      atomic.Int64 // worker panics contained
	Timeouts    atomic.Int64 // executions abandoned at the deadline
	VerifyRuns  atomic.Int64 // determinism checks performed on cache hits
	VerifyBad   atomic.Int64 // determinism checks that found a mismatch

	latency      [10]atomic.Int64 // len(LatencyBuckets)+1, last is +Inf
	latencyCount atomic.Int64
	latencyMicro atomic.Int64
}

func (m *Metrics) observeLatency(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(LatencyBuckets) && s > LatencyBuckets[i] {
		i++
	}
	m.latency[i].Add(1)
	m.latencyCount.Add(1)
	m.latencyMicro.Add(d.Microseconds())
}

// Snapshot is a point-in-time copy of Metrics.
type Snapshot struct {
	QueueDepth, WorkersBusy                    int64
	Submitted, Completed, Failed               int64
	CacheHits, CacheMisses, Computed, Uncached int64
	Coalesced, Panics, Timeouts                int64
	VerifyRuns, VerifyBad                      int64
	LatencyBucketCounts                        []int64 // aligned with LatencyBuckets, +Inf last
	LatencyCount                               int64
	LatencySumSeconds                          float64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		QueueDepth:  m.QueueDepth.Load(),
		WorkersBusy: m.WorkersBusy.Load(),
		Submitted:   m.Submitted.Load(),
		Completed:   m.Completed.Load(),
		Failed:      m.Failed.Load(),
		CacheHits:   m.CacheHits.Load(),
		CacheMisses: m.CacheMisses.Load(),
		Computed:    m.Computed.Load(),
		Uncached:    m.Uncached.Load(),
		Coalesced:   m.Coalesced.Load(),
		Panics:      m.Panics.Load(),
		Timeouts:    m.Timeouts.Load(),
		VerifyRuns:  m.VerifyRuns.Load(),
		VerifyBad:   m.VerifyBad.Load(),

		LatencyCount:      m.latencyCount.Load(),
		LatencySumSeconds: float64(m.latencyMicro.Load()) / 1e6,
	}
	s.LatencyBucketCounts = make([]int64, len(m.latency))
	for i := range m.latency {
		s.LatencyBucketCounts[i] = m.latency[i].Load()
	}
	return s
}
