package sim

import (
	"fmt"
	"reflect"
	"testing"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/workload"
)

// accountedOutcomes sums the counters that classify a demand access by
// outcome. Every access should land in exactly one of them.
func accountedOutcomes(m memsys.Stats) int64 {
	return m.L1Hits + m.InFlightMerges + m.L2DemandHits + m.L2DemandMisses
}

// busTransfers is the bus traffic r's counters account for: every demand
// L2 miss the IdealLDS oracle did not turn into a hit, every issued
// prefetch, every wrong-path fetch that went to DRAM, and every writeback.
func busTransfers(r Result) int64 {
	n := r.Mem.L2DemandMisses - r.Mem.IdealLDSHits + r.Mem.WrongPathToDRAM + r.Mem.Writebacks
	for _, issued := range r.Issued {
		n += issued
	}
	return n
}

// checkLifetimes requires every prefetch r issued to end exactly once: used
// by a demand, or evicted or left unused at the end of the run.
func checkLifetimes(t *testing.T, name string, r Result) {
	t.Helper()
	for src := prefetch.Source(0); src < prefetch.NumSources; src++ {
		if used, useless := r.Used[src], r.Mem.UselessEvicted[src]; used+useless != r.Issued[src] {
			t.Errorf("%s: %s used %d + useless %d = %d, want issued %d",
				name, src, used, useless, used+useless, r.Issued[src])
		}
	}
}

// TestAccountingIdentities checks the counter identities that hold on every
// named configuration under both core models: each access has one outcome,
// every bus transfer is a demand miss, an issued prefetch, a wrong-path
// fetch or a writeback, the transfers fit on the bus, every issued prefetch
// ends as exactly one of used or useless, the interval core sees no branches
// and no wrong path, and the ooo core's mispredictions and wrong-path DRAM
// fetches are subsets of its branches and wrong-path loads.
func TestAccountingIdentities(t *testing.T) {
	p := workload.Params{Scale: 0.05, Seed: 5}
	g, _ := workload.Get("mst")
	hints := profiling.Collect(g.Build(p), memsys.DefaultConfig(), cpu.DefaultConfig()).Hints(0)
	for _, config := range NamedConfigs() {
		for _, coreKind := range []string{CoreInterval, CoreOoO} {
			sp, err := Named(config, hints)
			if err != nil {
				t.Fatal(err)
			}
			sp = sp.WithCore(coreKind, nil)
			r, err := RunSingleSpec("mst", p, sp)
			if err != nil {
				t.Fatalf("%s/%s: %v", config, coreKind, err)
			}
			m := r.Mem
			if sum := accountedOutcomes(m); sum != m.Accesses {
				t.Errorf("%s/%s: L1Hits %d + InFlightMerges %d + L2DemandHits %d + L2DemandMisses %d = %d, want Accesses %d",
					config, coreKind, m.L1Hits, m.InFlightMerges, m.L2DemandHits, m.L2DemandMisses, sum, m.Accesses)
			}
			if n := busTransfers(r); n != r.BusTransfers {
				t.Errorf("%s/%s: counters account for %d bus transfers, controller counted %d",
					config, coreKind, n, r.BusTransfers)
			}
			checkBusBound(t, config+"/"+coreKind, r.BusTransfers, r.Cycles, dram.DefaultConfig(1))
			checkLifetimes(t, config+"/"+coreKind, r)
			switch coreKind {
			case CoreInterval:
				if r.Branches != 0 || m.WrongPathAccesses != 0 {
					t.Errorf("%s/interval: branches %d, wrong-path accesses %d, want 0/0",
						config, r.Branches, m.WrongPathAccesses)
				}
			case CoreOoO:
				if r.Branches <= 0 || r.Mispredicts > r.Branches {
					t.Errorf("%s/ooo: branches %d, mispredicts %d, want 0 < mispredicts-bounded branches",
						config, r.Branches, r.Mispredicts)
				}
				if m.WrongPathToDRAM > m.WrongPathAccesses {
					t.Errorf("%s/ooo: wrong-path to DRAM %d > wrong-path accesses %d",
						config, m.WrongPathToDRAM, m.WrongPathAccesses)
				}
			}
		}
	}

	// The NoPollution oracle (§2.3: stream+cdp with an unbounded prefetch
	// side buffer) breaks the outcome identity today: a demand access that
	// hits the side buffer is promoted into L2 but increments no Stats
	// outcome counter. This pins the gap rather than skipping it. Counting
	// those hits changes stored results, so the fix must come with a
	// jobs.SchemaVersion bump; when it lands, flip this to the identity.
	sp := NewSpec("stream+cdp", "stream", "cdp")
	sp.NoPollution = true
	r, err := RunSingleSpec("mst", p, sp)
	if err != nil {
		t.Fatal(err)
	}
	if n := busTransfers(r); n != r.BusTransfers {
		t.Errorf("no-pollution: counters account for %d bus transfers, controller counted %d", n, r.BusTransfers)
	}
	checkBusBound(t, "no-pollution", r.BusTransfers, r.Cycles, dram.DefaultConfig(1))
	sum := accountedOutcomes(r.Mem)
	if sum >= r.Mem.Accesses {
		t.Fatalf("no-pollution: outcomes sum %d, accesses %d: side-buffer hits are now counted; assert the identity here instead",
			sum, r.Mem.Accesses)
	}
	t.Logf("no-pollution: %d of %d accesses counted in no outcome", r.Mem.Accesses-sum, r.Mem.Accesses)

	// The lifetime identity has the matching gap: side-buffer blocks left
	// unused at the end of the run emit PrefetchUseless but do not count in
	// UselessEvicted, so no source counts a useless prefetch while stream
	// and CDP issue more than they use. Counting them changes stored
	// results too; when it lands, call checkLifetimes here instead.
	for src := prefetch.Source(0); src < prefetch.NumSources; src++ {
		if n := r.Mem.UselessEvicted[src]; n != 0 {
			t.Fatalf("no-pollution: %s UselessEvicted %d: leftover side-buffer blocks are now counted; assert the lifetime identity here instead",
				src, n)
		}
	}
	for _, src := range []prefetch.Source{prefetch.SrcStream, prefetch.SrcCDP} {
		if r.Used[src] >= r.Issued[src] {
			t.Errorf("no-pollution: %s used %d, issued %d: no unused side-buffer block left to pin the gap with",
				src, r.Used[src], r.Issued[src])
		}
		t.Logf("no-pollution: %s issued %d, used %d, useless 0", src, r.Issued[src], r.Used[src])
	}
}

// TestMixBusAccounting extends the bus and lifetime identities to a
// shared-DRAM mix: the per-core counters together account for every
// transfer on the shared bus, those transfers fit on it, and each core's
// issued prefetches end as exactly one of used or useless.
func TestMixBusAccounting(t *testing.T) {
	p := workload.Params{Scale: 0.05, Seed: 5}
	for _, config := range []string{"stream", "cdp+throttle"} {
		for _, coreKind := range []string{CoreInterval, CoreOoO} {
			sp, err := Named(config, nil)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := RunMultiSpec([]string{"mst", "health"}, p, sp.WithCore(coreKind, nil))
			if err != nil {
				t.Fatal(err)
			}
			var n int64
			for i, r := range mr.PerCore {
				n += busTransfers(r)
				checkLifetimes(t, fmt.Sprintf("%s/%s mix core %d", config, coreKind, i), r)
			}
			if n != mr.BusTransfers {
				t.Errorf("%s/%s: per-core counters account for %d bus transfers, the shared controller counted %d",
					config, coreKind, n, mr.BusTransfers)
			}
			checkBusBound(t, config+"/"+coreKind+" mix", mr.BusTransfers, mixCycles(mr), dram.DefaultConfig(2))
		}
	}
}

// TestExplicitIntervalCoreMatchesDefault requires a spec that names the
// interval core to simulate exactly what the same spec without a core does,
// single-core and in a shared mix.
func TestExplicitIntervalCoreMatchesDefault(t *testing.T) {
	p := workload.Params{Scale: 0.05, Seed: 5}
	sp := NewSpec("stream+cdp+thr", "stream", "cdp", "throttle")
	explicit := sp.WithCore(CoreInterval, nil)

	a, errA := RunSingleSpec("mst", p, sp)
	b, errB := RunSingleSpec("mst", p, explicit)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("explicit interval core diverged from the default:\n default=%+v\nexplicit=%+v", a, b)
	}

	mix := []string{"mst", "health"}
	ma, errA := RunMultiSpec(mix, p, sp)
	mb, errB := RunMultiSpec(mix, p, explicit)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("explicit interval core diverged from the default in a mix:\n default=%+v\nexplicit=%+v", ma, mb)
	}
}
