package core

import (
	"testing"
	"testing/quick"

	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/telemetry"
)

func TestDecideTable3(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		name                     string
		ownCov, ownAcc, rivalCov float64
		want                     Decision
	}{
		{"case1 high coverage", 0.5, 0.1, 0.9, ThrottleUp},
		{"case1 boundary", 0.2, 0.0, 0.0, ThrottleUp},
		{"case2 low cov low acc, rival low", 0.1, 0.2, 0.0, ThrottleDown},
		{"case2 low cov low acc, rival high", 0.1, 0.2, 0.9, ThrottleDown},
		{"case3 medium acc rival low", 0.1, 0.5, 0.1, ThrottleUp},
		{"case3 high acc rival low", 0.1, 0.9, 0.1, ThrottleUp},
		{"case4 medium acc rival high", 0.1, 0.5, 0.5, ThrottleDown},
		{"case5 high acc rival high", 0.1, 0.9, 0.5, DoNothing},
	}
	for _, c := range cases {
		if got, _ := DecideCase(th, c.ownCov, c.ownAcc, c.rivalCov); got != c.want {
			t.Errorf("%s: DecideCase(%v,%v,%v) = %v, want %v",
				c.name, c.ownCov, c.ownAcc, c.rivalCov, got, c.want)
		}
	}
}

func TestDecideTotalProperty(t *testing.T) {
	// Every (coverage, accuracy, rivalCoverage) triple maps to exactly one
	// of the three decisions — the heuristic table is total.
	th := DefaultThresholds()
	f := func(a, b, c uint8) bool {
		d, _ := DecideCase(th, float64(a)/255, float64(b)/255, float64(c)/255)
		return d == DoNothing || d == ThrottleUp || d == ThrottleDown
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type fakeThrottleable struct{ level prefetch.AggLevel }

func (f *fakeThrottleable) Level() prefetch.AggLevel     { return f.level }
func (f *fakeThrottleable) SetLevel(l prefetch.AggLevel) { f.level = l.Clamp() }

func TestThrottlerRoundCoordinated(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	// Stream: low coverage, low accuracy → down (case 2).
	fb.Sources[prefetch.SrcStream].Issued.Add(100)
	fb.Sources[prefetch.SrcStream].Used.Add(10)
	// CDP: high coverage → up (case 1).
	fb.Sources[prefetch.SrcCDP].Issued.Add(100)
	fb.Sources[prefetch.SrcCDP].Used.Add(80)
	fb.DemandMisses.Add(100)

	stream := &fakeThrottleable{level: prefetch.Moderate}
	cdp := &fakeThrottleable{level: prefetch.Moderate}
	tr := NewThrottler(DefaultThresholds(), fb)
	tr.Add(prefetch.SrcStream, stream)
	tr.Add(prefetch.SrcCDP, cdp)
	tr.Install()

	fb.EvictionAt(0) // close interval → smoothed counters → round

	// Smoothed: stream acc 0.1, cov 5/(5+50)≈0.09; cdp acc 0.8, cov 40/90≈0.44.
	if stream.level != prefetch.Conservative {
		t.Fatalf("stream level = %v, want throttled down to conservative", stream.level)
	}
	if cdp.level != prefetch.Aggressive {
		t.Fatalf("cdp level = %v, want throttled up to aggressive", cdp.level)
	}
}

func TestThrottlerCase5DoNothing(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	// Deciding: low coverage, high accuracy. Rival: high coverage.
	fb.Sources[prefetch.SrcCDP].Issued.Add(10)
	fb.Sources[prefetch.SrcCDP].Used.Add(9) // acc 0.9
	fb.Sources[prefetch.SrcStream].Issued.Add(200)
	fb.Sources[prefetch.SrcStream].Used.Add(150)
	fb.DemandMisses.Add(100)

	cdp := &fakeThrottleable{level: prefetch.Conservative}
	stream := &fakeThrottleable{level: prefetch.Aggressive}
	tr := NewThrottler(DefaultThresholds(), fb)
	tr.Add(prefetch.SrcCDP, cdp)
	tr.Add(prefetch.SrcStream, stream)
	tr.Install()
	fb.EvictionAt(0)

	// CDP: cov = 4.5/(4.5+50) ≈ 0.08 low, acc 0.9 high, rival cov
	// 75/(75+50) = 0.6 high → case 5: unchanged.
	if cdp.level != prefetch.Conservative {
		t.Fatalf("cdp level = %v, want unchanged (case 5)", cdp.level)
	}
	// Stream: cov 0.6 high → up, already at max → stays aggressive.
	if stream.level != prefetch.Aggressive {
		t.Fatalf("stream level = %v, want aggressive", stream.level)
	}
}

func TestThrottlerLevelsSaturate(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	p := &fakeThrottleable{level: prefetch.VeryConservative}
	tr := NewThrottler(DefaultThresholds(), fb)
	tr.Add(prefetch.SrcCDP, p)
	tr.Install()
	// Idle prefetcher: accuracy defaults to 1, coverage 0 → with no rival
	// coverage, case 3 throttles up each interval until saturation.
	for i := 0; i < 10; i++ {
		fb.EvictionAt(0)
	}
	if p.level != prefetch.Aggressive {
		t.Fatalf("level = %v, want saturated at aggressive", p.level)
	}
}

// TestInstallChainsExistingHook checks Install adds the throttler's round
// to the interval subscribers without dropping one subscribed earlier.
func TestInstallChainsExistingHook(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	called := false
	fb.ObserveIntervals(func() { called = true })
	tr := NewThrottler(DefaultThresholds(), fb)
	tr.Install()
	fb.EvictionAt(0)
	if !called {
		t.Fatal("pre-existing interval subscriber must still run")
	}
}

func TestDecideCaseTable3(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		name                     string
		ownCov, ownAcc, rivalCov float64
		want                     Decision
		wantCase                 int
	}{
		{"case1 high coverage", 0.5, 0.1, 0.9, ThrottleUp, 1},
		{"case2 low acc", 0.1, 0.2, 0.9, ThrottleDown, 2},
		{"case3 medium acc rival low", 0.1, 0.5, 0.1, ThrottleUp, 3},
		{"case3 high acc rival low", 0.1, 0.9, 0.1, ThrottleUp, 3},
		{"case4 medium acc rival high", 0.1, 0.5, 0.5, ThrottleDown, 4},
		{"case5 high acc rival high", 0.1, 0.9, 0.5, DoNothing, 5},
	}
	for _, c := range cases {
		d, tc := DecideCase(th, c.ownCov, c.ownAcc, c.rivalCov)
		if d != c.want || tc != c.wantCase {
			t.Errorf("%s: DecideCase(%v,%v,%v) = (%v, case %d), want (%v, case %d)",
				c.name, c.ownCov, c.ownAcc, c.rivalCov, d, tc, c.want, c.wantCase)
		}
	}
}

func TestThrottlerEmitsEvents(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	fb.Sources[prefetch.SrcStream].Issued.Add(100)
	fb.Sources[prefetch.SrcStream].Used.Add(10) // low acc → case 2 down
	fb.Sources[prefetch.SrcCDP].Issued.Add(100)
	fb.Sources[prefetch.SrcCDP].Used.Add(80) // high cov → case 1 up
	fb.DemandMisses.Add(100)

	stream := &fakeThrottleable{level: prefetch.Moderate}
	cdp := &fakeThrottleable{level: prefetch.Moderate}
	trc := &telemetry.Trace{}
	tr := NewThrottler(DefaultThresholds(), fb)
	tr.Trace = trc
	tr.Add(prefetch.SrcStream, stream)
	tr.Add(prefetch.SrcCDP, cdp)
	tr.Install()
	fb.EvictionAt(0)

	if len(trc.Events) != 2 {
		t.Fatalf("events = %d, want 2 (one per prefetcher per round)", len(trc.Events))
	}
	se, ce := trc.Events[0], trc.Events[1]
	if se.Src != prefetch.SrcStream || se.Case != 2 || se.Decision != "down" ||
		se.OldLevel != prefetch.Moderate || se.NewLevel != prefetch.Conservative {
		t.Fatalf("stream event = %+v", se)
	}
	if ce.Src != prefetch.SrcCDP || ce.Case != 1 || ce.Decision != "up" ||
		ce.OldLevel != prefetch.Moderate || ce.NewLevel != prefetch.Aggressive {
		t.Fatalf("cdp event = %+v", ce)
	}
	if se.Interval != 0 || ce.Interval != 0 {
		t.Fatalf("interval index = %d/%d, want 0", se.Interval, ce.Interval)
	}
	// The recorded inputs must be the smoothed interval values.
	if se.OwnAcc != fb.Accuracy(prefetch.SrcStream) || se.RivalCov != fb.Coverage(prefetch.SrcCDP) {
		t.Fatalf("stream event inputs = %+v, want smoothed feedback values", se)
	}
}

func TestDecisionString(t *testing.T) {
	if ThrottleUp.String() != "up" || ThrottleDown.String() != "down" || DoNothing.String() != "nothing" {
		t.Fatal("Decision.String mismatch")
	}
}
