package prefetch

import (
	"testing"
	"testing/quick"
)

func TestSourceString(t *testing.T) {
	want := map[Source]string{
		SrcDemand: "demand", SrcStream: "stream", SrcCDP: "cdp",
		SrcMarkov: "markov", SrcGHB: "ghb", SrcDBP: "dbp",
	}
	//ldslint:ordered each source asserted independently via t.Errorf
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if SrcDemand.IsPrefetch() {
		t.Error("demand must not be a prefetch source")
	}
	if !SrcCDP.IsPrefetch() || !SrcStream.IsPrefetch() {
		t.Error("cdp/stream must be prefetch sources")
	}
}

func TestPGKeyRoundTrip(t *testing.T) {
	f := func(pc uint32, off int8) bool {
		wo := int(off % 16)
		k := MakePGKey(pc, wo)
		return k.PC() == pc && k.WordOff() == wo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPGKeyNegativeOffset(t *testing.T) {
	k := MakePGKey(0xdeadbeef, -12)
	if k.PC() != 0xdeadbeef || k.WordOff() != -12 {
		t.Fatalf("got pc=%#x off=%d", k.PC(), k.WordOff())
	}
}

func TestAggLevelTable2(t *testing.T) {
	cases := []struct {
		l                AggLevel
		distance, degree int
		depth            int
	}{
		{VeryConservative, 4, 1, 1},
		{Conservative, 8, 1, 2},
		{Moderate, 16, 2, 3},
		{Aggressive, 32, 4, 4},
	}
	for _, c := range cases {
		d, g := StreamParams(c.l)
		if d != c.distance || g != c.degree {
			t.Errorf("StreamParams(%v) = (%d,%d), want (%d,%d)", c.l, d, g, c.distance, c.degree)
		}
		if got := CDPDepth(c.l); got != c.depth {
			t.Errorf("CDPDepth(%v) = %d, want %d", c.l, got, c.depth)
		}
	}
}

func TestAggLevelClamp(t *testing.T) {
	if AggLevel(-3).Clamp() != VeryConservative {
		t.Error("below range must clamp to very-conservative")
	}
	if AggLevel(7).Clamp() != Aggressive {
		t.Error("above range must clamp to aggressive")
	}
}

func TestCounterEquation3(t *testing.T) {
	var c Counter
	c.Add(100)
	c.EndInterval()
	if c.Value() != 50 {
		t.Fatalf("after first interval Value = %v, want 50", c.Value())
	}
	c.Add(10)
	c.EndInterval()
	if c.Value() != 30 { // 0.5*50 + 0.5*10
		t.Fatalf("after second interval Value = %v, want 30", c.Value())
	}
	if c.Raw() != 110 {
		t.Fatalf("Raw = %v, want 110", c.Raw())
	}
}

func TestFeedbackIntervalBoundary(t *testing.T) {
	f := NewFeedback(4)
	fired := 0
	f.OnInterval = func() { fired++ }
	f.Sources[SrcStream].Issued.Add(8)
	f.Sources[SrcStream].Used.Add(4)
	f.DemandMisses.Add(12)
	for i := 0; i < 3; i++ {
		f.Eviction()
	}
	if fired != 0 {
		t.Fatal("interval fired early")
	}
	f.Eviction()
	if fired != 1 || f.Intervals() != 1 {
		t.Fatalf("fired=%d intervals=%d, want 1,1", fired, f.Intervals())
	}
	// Smoothed: issued=4, used=2, misses=6.
	if got := f.Accuracy(SrcStream); got != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", got)
	}
	if got := f.Coverage(SrcStream); got != 0.25 { // 2/(2+6)
		t.Fatalf("coverage = %v, want 0.25", got)
	}
}

func TestFeedbackIdlePrefetcherAccuracy(t *testing.T) {
	f := NewFeedback(1)
	f.Eviction()
	if got := f.Accuracy(SrcCDP); got != 1 {
		t.Fatalf("idle accuracy = %v, want 1", got)
	}
	if got := f.Coverage(SrcCDP); got != 0 {
		t.Fatalf("idle coverage = %v, want 0", got)
	}
}

func TestFeedbackRawMetrics(t *testing.T) {
	f := NewFeedback(0) // default interval
	s := &f.Sources[SrcCDP]
	s.Issued.Add(10)
	s.Used.Add(3)
	f.DemandMisses.Add(7)
	if got := f.RawAccuracy(SrcCDP); got != 0.3 {
		t.Fatalf("raw accuracy = %v, want 0.3", got)
	}
	if got := f.RawCoverage(SrcCDP); got != 0.3 {
		t.Fatalf("raw coverage = %v, want 0.3", got)
	}
}

func TestAccuracyCappedAtOne(t *testing.T) {
	f := NewFeedback(1)
	f.Sources[SrcStream].Issued.Add(1)
	f.Sources[SrcStream].Used.Add(5) // degenerate: more used than issued in window
	f.Eviction()
	if got := f.Accuracy(SrcStream); got != 1 {
		t.Fatalf("accuracy = %v, want capped at 1", got)
	}
}
