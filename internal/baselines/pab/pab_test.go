package pab

import (
	"testing"

	"ldsprefetch/internal/prefetch"
)

type fakeSwitch struct{ on bool }

func (f *fakeSwitch) SetEnabled(on bool) { f.on = on }

func TestMostAccurateWins(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	a := &fakeSwitch{on: true}
	b := &fakeSwitch{on: true}
	s := NewSelector(fb)
	s.Add(prefetch.SrcStream, a)
	s.Add(prefetch.SrcCDP, b)
	s.Install()

	fb.Sources[prefetch.SrcStream].Issued.Add(100)
	fb.Sources[prefetch.SrcStream].Used.Add(30)
	fb.Sources[prefetch.SrcCDP].Issued.Add(100)
	fb.Sources[prefetch.SrcCDP].Used.Add(70)
	fb.EvictionAt(0)

	if a.on || !b.on {
		t.Fatalf("stream=%v cdp=%v, want only the more accurate CDP enabled", a.on, b.on)
	}
}

func TestIdlePrefetcherCannotWin(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	idle := &fakeSwitch{on: true}
	busy := &fakeSwitch{on: true}
	s := NewSelector(fb)
	s.Add(prefetch.SrcCDP, idle) // issues nothing (default accuracy 1)
	s.Add(prefetch.SrcStream, busy)
	s.Install()
	fb.Sources[prefetch.SrcStream].Issued.Add(100)
	fb.Sources[prefetch.SrcStream].Used.Add(20)
	fb.EvictionAt(0)
	if idle.on || !busy.on {
		t.Fatalf("idle=%v busy=%v: an idle prefetcher must not win on default accuracy", idle.on, busy.on)
	}
}

func TestSelectionFlipsWithPhase(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	a := &fakeSwitch{on: true}
	b := &fakeSwitch{on: true}
	s := NewSelector(fb)
	s.Add(prefetch.SrcStream, a)
	s.Add(prefetch.SrcCDP, b)
	s.Install()
	fb.Sources[prefetch.SrcStream].Issued.Add(100)
	fb.Sources[prefetch.SrcStream].Used.Add(90)
	fb.Sources[prefetch.SrcCDP].Issued.Add(100)
	fb.Sources[prefetch.SrcCDP].Used.Add(10)
	fb.EvictionAt(0)
	if !a.on || b.on {
		t.Fatal("phase 1: stream should win")
	}
	// Phase change: CDP becomes accurate. Smoothing halves old values.
	for i := 0; i < 4; i++ {
		fb.Sources[prefetch.SrcCDP].Issued.Add(100)
		fb.Sources[prefetch.SrcCDP].Used.Add(95)
		fb.Sources[prefetch.SrcStream].Issued.Add(100)
		fb.Sources[prefetch.SrcStream].Used.Add(5)
		fb.EvictionAt(0)
	}
	if a.on || !b.on {
		t.Fatal("phase 2: cdp should win after the flip")
	}
}

func TestEmptySelectorSafe(t *testing.T) {
	fb := prefetch.NewFeedback(1)
	s := NewSelector(fb)
	s.Install()
	fb.EvictionAt(0) // must not panic
}
