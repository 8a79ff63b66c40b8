package main

import (
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/sim"
)

// tally sums the simulated statistics of a pass's results. The counts repeat
// exactly for a given input, so they show whether a change moved the
// simulated system rather than the simulator's speed.
type tally struct {
	accesses, l1Hits, l2Misses, merges, pfDropped int64
	wrongPath, wrongPathToDRAM                    int64
	bus, retired, cycles, branches, mispredicts   int64
	streamIssued, streamUsed                      int64
	cdpIssued, cdpUsed, cdpDemandMisses           int64
}

// add folds in one result; bus is the bus traffic to charge to it (a shared
// run's total is charged once).
func (t *tally) add(r sim.Result, bus int64) {
	m := r.Mem
	t.accesses += m.Accesses
	t.l1Hits += m.L1Hits
	t.l2Misses += m.L2DemandMisses
	t.merges += m.InFlightMerges
	t.pfDropped += m.PrefDropCacheHit + m.PrefDropQueue + m.PrefDropFilter
	t.wrongPath += m.WrongPathAccesses
	t.wrongPathToDRAM += m.WrongPathToDRAM
	t.bus += bus
	t.retired += r.Retired
	t.cycles += r.Cycles
	t.branches += r.Branches
	t.mispredicts += r.Mispredicts
	t.streamIssued += r.Issued[prefetch.SrcStream]
	t.streamUsed += r.Used[prefetch.SrcStream]
	if r.Issued[prefetch.SrcCDP] > 0 {
		t.cdpIssued += r.Issued[prefetch.SrcCDP]
		t.cdpUsed += r.Used[prefetch.SrcCDP]
		t.cdpDemandMisses += r.DemandMisses
	}
}

// metrics writes the tally's per-layer counts and ratios into m. Each ratio
// is emitted beside its base.
func (t tally) metrics(m map[string]metric) {
	m["memsys.accesses"] = metric{float64(t.accesses), "count"}
	m["memsys.l1_hit_frac"] = metric{ratio(t.l1Hits, t.accesses), "frac"}
	m["memsys.l2_miss_frac"] = metric{ratio(t.l2Misses, t.accesses), "frac"}
	m["memsys.inflight_merges"] = metric{float64(t.merges), "count"}
	m["memsys.pf_dropped"] = metric{float64(t.pfDropped), "count"}
	m["memsys.wrongpath_accesses"] = metric{float64(t.wrongPath), "count"}
	m["memsys.wrongpath_to_dram"] = metric{float64(t.wrongPathToDRAM), "count"}
	m["dram.bus_transfers"] = metric{float64(t.bus), "count"}
	m["sim.retired"] = metric{float64(t.retired), "count"}
	m["sim.ipc"] = metric{ratio(t.retired, t.cycles), "instr/cycle"}
	m["sim.bpki"] = metric{ratio(t.bus*1000, t.retired), "transfers/kinstr"}
	m["stream.issued"] = metric{float64(t.streamIssued), "count"}
	m["stream.accuracy"] = metric{ratio(t.streamUsed, t.streamIssued), "frac"}
	m["core.cdp_issued"] = metric{float64(t.cdpIssued), "count"}
	m["core.cdp_accuracy"] = metric{ratio(t.cdpUsed, t.cdpIssued), "frac"}
	m["core.cdp_coverage"] = metric{ratio(t.cdpUsed, t.cdpUsed+t.cdpDemandMisses), "frac"}
	m["cpu_ooo.branches"] = metric{float64(t.branches), "count"}
	m["cpu_ooo.mispredict_frac"] = metric{ratio(t.mispredicts, t.branches), "frac"}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
