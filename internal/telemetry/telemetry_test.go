package telemetry

import (
	"testing"

	"ldsprefetch/internal/prefetch"
)

// TestRecorderCutsDeltas drives a Feedback through two intervals by hand and
// checks the recorder emits one record per interval with per-interval deltas
// and post-fold smoothed metrics.
func TestRecorderCutsDeltas(t *testing.T) {
	fb := prefetch.NewFeedback(2) // interval = 2 evictions
	trc := &Trace{Benchmark: "b", Setup: "s", Sources: []prefetch.Source{prefetch.SrcStream}}
	rec := NewRecorder(trc, fb)
	var retired, bus int64
	rec.Retired = func() int64 { return retired }
	rec.BusTransfers = func() int64 { return bus }
	rec.ReqBuf = func(int64) int { return 7 }
	rec.Level = func(src prefetch.Source) int8 {
		if src == prefetch.SrcStream {
			return 3
		}
		return -1
	}
	rec.Install()

	// Interval 0: 4 issued, 2 used, 6 misses, 1000 instrs, 10 transfers.
	st := &fb.Sources[prefetch.SrcStream]
	st.Issued.Add(4)
	st.Used.Add(2)
	fb.DemandMisses.Add(6)
	retired, bus = 1000, 10
	fb.EvictionAt(100)
	fb.EvictionAt(200)

	// Interval 1: 2 more issued, 1 more used, 4 more misses.
	st.Issued.Add(2)
	st.Used.Add(1)
	fb.DemandMisses.Add(4)
	retired, bus = 3000, 16
	fb.EvictionAt(300)
	fb.EvictionAt(250) // out-of-order timestamp must not move time backwards

	if len(trc.Intervals) != 2 {
		t.Fatalf("intervals recorded = %d, want 2", len(trc.Intervals))
	}
	r0, r1 := trc.Intervals[0], trc.Intervals[1]

	if r0.Interval != 0 || r0.Cycle != 200 || r0.Retired != 1000 {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.Issued[prefetch.SrcStream] != 4 || r0.Used[prefetch.SrcStream] != 2 ||
		r0.DemandMisses != 6 || r0.BusTransfers != 10 {
		t.Fatalf("r0 deltas = %+v", r0)
	}
	// Post-fold smoothing (Eq. 3): smoothed issued 2, used 1 → acc 0.5;
	// coverage 1/(1+3) = 0.25.
	if r0.Accuracy[prefetch.SrcStream] != 0.5 || r0.Coverage[prefetch.SrcStream] != 0.25 {
		t.Fatalf("r0 smoothed = acc %v cov %v", r0.Accuracy[prefetch.SrcStream], r0.Coverage[prefetch.SrcStream])
	}
	if r0.BPKI != 10.0 || r0.ReqBuf != 7 || r0.Level[prefetch.SrcStream] != 3 {
		t.Fatalf("r0 gauges = %+v", r0)
	}
	if r0.Level[prefetch.SrcCDP] != -1 {
		t.Fatalf("unattached source level = %d, want -1", r0.Level[prefetch.SrcCDP])
	}

	if r1.Interval != 1 || r1.Cycle != 300 {
		t.Fatalf("r1 = %+v", r1)
	}
	if r1.Issued[prefetch.SrcStream] != 2 || r1.Used[prefetch.SrcStream] != 1 ||
		r1.DemandMisses != 4 || r1.BusTransfers != 6 {
		t.Fatalf("r1 deltas = %+v", r1)
	}
	// BPKI for interval 1: 6 transfers / 2 kilo-instructions.
	if r1.BPKI != 3.0 {
		t.Fatalf("r1 BPKI = %v, want 3", r1.BPKI)
	}
}

// TestRecorderNilHooks checks the recorder tolerates unwired gauge hooks
// (every hook is optional).
func TestRecorderNilHooks(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	trc := &Trace{}
	NewRecorder(trc, fb).Install()
	fb.EvictionAt(42)
	if len(trc.Intervals) != 1 {
		t.Fatalf("intervals = %d, want 1", len(trc.Intervals))
	}
	r := trc.Intervals[0]
	if r.Cycle != 42 || r.Retired != 0 || r.BPKI != 0 || r.Level[prefetch.SrcStream] != -1 {
		t.Fatalf("record = %+v", r)
	}
}

// TestRecorderChainsExistingHook checks Install preserves an interval
// subscriber added before it and runs that subscriber before cutting the
// record.
func TestRecorderChainsExistingHook(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	trc := &Trace{}
	recordsSeen := -1
	fb.ObserveIntervals(func() { recordsSeen = len(trc.Intervals) })
	NewRecorder(trc, fb).Install()
	fb.EvictionAt(0)
	if recordsSeen != 0 {
		t.Fatalf("pre-existing subscriber saw %d records, want it to run before the cut", recordsSeen)
	}
	if len(trc.Intervals) != 1 {
		t.Fatal("record not cut")
	}
}
