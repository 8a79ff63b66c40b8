package dram

import (
	"math/rand"
	"testing"
)

// serve pushes a scripted request sequence through a controller.
func serve(c *Controller, reqs []Request) {
	for _, r := range reqs {
		if r.Writeback {
			c.Writeback(r.Addr, r.At)
		} else {
			c.Access(r.Addr, r.At, r.Demand)
		}
	}
}

// randomReqs builds a contention-heavy request script: clustered addresses
// (bank conflicts), mixed demand/prefetch/writeback, loosely increasing
// timestamps with enough density to exercise the request-buffer bound.
func randomReqs(seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, 0, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(30))
		r := Request{
			Addr: 0x1000_0000 + uint32(rng.Intn(64))<<6,
			At:   t,
		}
		switch rng.Intn(4) {
		case 0:
			r.Writeback = true
		case 1, 2:
			r.Demand = true
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// equalState compares every piece of controller state that influences future
// request resolution or reports.
func equalState(t *testing.T, got, want *Controller) {
	t.Helper()
	if got.busFree != want.busFree || got.busFreeDem != want.busFreeDem {
		t.Fatalf("bus state (%d,%d) != (%d,%d)", got.busFree, got.busFreeDem, want.busFree, want.busFreeDem)
	}
	for b := range want.bankFree {
		if got.bankFree[b] != want.bankFree[b] || got.bankFreeDem[b] != want.bankFreeDem[b] {
			t.Fatalf("bank %d state (%d,%d) != (%d,%d)", b,
				got.bankFree[b], got.bankFreeDem[b], want.bankFree[b], want.bankFreeDem[b])
		}
	}
	if len(got.pending) != len(want.pending) {
		t.Fatalf("pending %d entries, want %d", len(got.pending), len(want.pending))
	}
	for i := range want.pending {
		if got.pending[i] != want.pending[i] {
			t.Fatalf("pending[%d] = %d, want %d", i, got.pending[i], want.pending[i])
		}
	}
	if got.Transfers != want.Transfers || got.DemandTransfers != want.DemandTransfers || got.Stalls != want.Stalls {
		t.Fatalf("counters (%d,%d,%d) != (%d,%d,%d)",
			got.Transfers, got.DemandTransfers, got.Stalls,
			want.Transfers, want.DemandTransfers, want.Stalls)
	}
}

// TestReplayReproducesDirectState pins the epoch-batching invariant the
// parallel engine rests on: a request script logged by a shadow and replayed
// onto the master leaves the master in exactly the state it would have
// reached serving the script directly.
func TestReplayReproducesDirectState(t *testing.T) {
	cfg := DefaultConfig(2)
	master := NewController(cfg)
	shadow := NewController(cfg)
	shadow.StartLog()
	direct := NewController(cfg)

	// Several epochs: rebase, absorb, replay.
	script := randomReqs(11, 600)
	for off := 0; off < len(script); off += 150 {
		epoch := script[off : off+150]
		shadow.CopyStateFrom(master)
		serve(shadow, epoch)
		master.ReplayMergedFrom([]*Controller{shadow})
		serve(direct, epoch)
		equalState(t, master, direct)
		if n := len(shadow.Log()); n != 0 {
			t.Fatalf("replay left %d logged requests", n)
		}
	}
}

// TestCopyStateFromRebases verifies a rebased shadow resolves requests
// exactly as the source would, and that rebasing clears the log but keeps
// logging enabled.
func TestCopyStateFromRebases(t *testing.T) {
	cfg := DefaultConfig(1)
	src := NewController(cfg)
	serve(src, randomReqs(5, 100))

	shadow := NewController(cfg)
	shadow.StartLog()
	shadow.Access(0x2000_0000, 0, true) // stale epoch: must vanish on rebase
	shadow.CopyStateFrom(src)
	if n := len(shadow.Log()); n != 0 {
		t.Fatalf("rebase left %d logged requests", n)
	}
	equalState(t, shadow, src)

	probe := Request{Addr: 0x3000_0040, At: 500, Demand: true}
	want := src.Access(probe.Addr, probe.At, probe.Demand)
	if got := shadow.Access(probe.Addr, probe.At, probe.Demand); got != want {
		t.Fatalf("rebased probe completes at %d, source at %d", got, want)
	}
	if got := shadow.Log(); len(got) != 1 || got[0] != probe {
		t.Fatalf("log after rebase = %+v, want [%+v]", got, probe)
	}
}

// TestReplayMergedReproducesDirectState pins the barrier's commit semantics:
// replaying two shadows' interleaved epochs through ReplayMergedFrom leaves
// the master in exactly the state a single controller reaches serving the
// union of the scripts in arrival order, with ties broken by source index.
func TestReplayMergedReproducesDirectState(t *testing.T) {
	cfg := DefaultConfig(2)
	master := NewController(cfg)
	direct := NewController(cfg)
	a, b := NewController(cfg), NewController(cfg)
	a.StartLog()
	b.StartLog()

	sa, sb := randomReqs(21, 300), randomReqs(22, 300)
	serve(a, sa)
	serve(b, sb)
	master.ReplayMergedFrom([]*Controller{a, b})
	if len(a.Log()) != 0 || len(b.Log()) != 0 {
		t.Fatal("merged replay left logged requests behind")
	}

	// Reference: merge the scripts by (At, source index, program order).
	merged := make([]Request, 0, len(sa)+len(sb))
	i, j := 0, 0
	for i < len(sa) || j < len(sb) {
		if j >= len(sb) || (i < len(sa) && sa[i].At <= sb[j].At) {
			merged = append(merged, sa[i])
			i++
		} else {
			merged = append(merged, sb[j])
			j++
		}
	}
	serve(direct, merged)
	equalState(t, master, direct)
}

// TestEchoRatchetsHorizonsOnly pins the echo contract: echoed cross-traffic
// delays a later real request to the same resources (the collision channel),
// but leaves the request buffer, the counters, and the log untouched.
func TestEchoRatchetsHorizonsOnly(t *testing.T) {
	cfg := DefaultConfig(2)
	quiet := NewController(cfg)
	quiet.StartLog()
	loud := NewController(cfg)
	loud.StartLog()

	// One echoed demand per bus-slot for a stretch before the probe: the
	// probe's demand must queue behind the echoed demand traffic.
	echo := make([]Request, 0, 32)
	for i := 0; i < 32; i++ {
		echo = append(echo, Request{
			Addr:   0x4000_0000 + uint32(i%8)<<6,
			At:     int64(i) * cfg.BusCycles,
			Demand: true,
		})
	}
	loud.SetEcho([][]Request{echo}, 0, 0)

	probe := Request{Addr: 0x5000_0040, At: 600, Demand: true}
	base := quiet.Access(probe.Addr, probe.At, probe.Demand)
	got := loud.Access(probe.Addr, probe.At, probe.Demand)
	if got <= base {
		t.Fatalf("probe behind echo completes at %d, want later than uncontended %d", got, base)
	}
	if loud.Transfers != 1 || loud.DemandTransfers != 1 || loud.Stalls != 0 {
		t.Fatalf("echo leaked into counters: transfers=%d demand=%d stalls=%d",
			loud.Transfers, loud.DemandTransfers, loud.Stalls)
	}
	if n := len(loud.pending); n != 1 {
		t.Fatalf("echo occupies the request buffer: %d pending, want 1", n)
	}
	if n := len(loud.Log()); n != 1 {
		t.Fatalf("echo leaked into the log: %d entries, want 1", n)
	}
}

// TestEchoLookahead pins the collision half-window: cross-traffic arriving
// within lookahead cycles AFTER a request still delays it (near-simultaneous
// requests contend bidirectionally), while traffic beyond the window does
// not.
func TestEchoLookahead(t *testing.T) {
	cfg := DefaultConfig(2)
	mk := func(lookahead int64) int64 {
		c := NewController(cfg)
		c.StartLog()
		// A burst of echoed demands 100 cycles after the probe's arrival.
		echo := make([]Request, 0, 8)
		for i := 0; i < 8; i++ {
			echo = append(echo, Request{Addr: 0x4000_0000 + uint32(i%8)<<6,
				At: 100 + int64(i), Demand: true})
		}
		c.SetEcho([][]Request{echo}, 0, lookahead)
		return c.Access(0x5000_0040, 0, true)
	}
	if ahead, behind := mk(512), mk(0); ahead <= behind {
		t.Fatalf("lookahead 512 completes at %d, want later than lookahead 0 (%d)", ahead, behind)
	}
}

// TestLogRecordsOriginalArguments pins that the log captures arrival-time
// arguments, not admission-adjusted ones: replay must re-resolve admission
// against the master's own request buffer.
func TestLogRecordsOriginalArguments(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.RequestBuffer = 1
	c := NewController(cfg)
	c.StartLog()
	c.Access(0x1000_0000, 0, true)
	c.Access(0x1000_0040, 0, true) // admission defers this one internally
	if c.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1 (test must exercise admission deferral)", c.Stalls)
	}
	log := c.Log()
	if len(log) != 2 || log[1].At != 0 {
		t.Fatalf("log = %+v, want second entry logged at its arrival time 0", log)
	}
}
