package sim

import (
	"testing"

	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
)

// chainBench is a synthetic dependent pointer chain: chainNodes nodes, one
// per 256 bytes, so the chain touches more blocks than the L2 holds (1 MB =
// 16384 blocks), visited in a shuffled order. Each load's address is the
// value the previous load returned, so no load can start before its
// predecessor's data arrives.
const (
	chainBench = "bounds-chain"
	chainNodes = 20000
)

func init() {
	if err := workload.Register(workload.Generator{
		Name:        chainBench,
		Server:      true, // keep it out of the paper's benchmark lists
		Description: "test-only dependent pointer chain larger than the L2",
		Build:       buildChain,
	}); err != nil {
		panic(err)
	}
}

func buildChain(workload.Params) *trace.Trace {
	order := make([]uint32, chainNodes)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint32(2463534242) // xorshift32 state: a fixed shuffle
	for i := len(order) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := int(x % uint32(i+1))
		order[i], order[j] = order[j], order[i]
	}
	addr := func(k int) uint32 { return mem.HeapBase + order[k]*256 }
	m := mem.New()
	for k := 0; k+1 < chainNodes; k++ {
		m.Write32(addr(k), addr(k+1))
	}
	b := trace.NewBuilder(chainBench, m, 0)
	ptr, dep := b.Load(1, addr(0), trace.NoDep, true)
	for k := 1; k < chainNodes; k++ {
		ptr, dep = b.Load(1, ptr, dep, true)
	}
	return b.Trace()
}

// checkBusBound requires the bus to have carried no more transfers than fit
// in the run: each transfer holds it for BusCycles.
func checkBusBound(t *testing.T, label string, transfers, cycles int64, cfg dram.Config) {
	t.Helper()
	if transfers*cfg.BusCycles > cycles {
		t.Errorf("%s: %d bus transfers × %d cycles = %d > %d run cycles",
			label, transfers, cfg.BusCycles, transfers*cfg.BusCycles, cycles)
	}
}

// mixCycles is a mix's run length: the cycles of its slowest core.
func mixCycles(mr MultiResult) int64 {
	var cycles int64
	for _, r := range mr.PerCore {
		cycles = max(cycles, r.Cycles)
	}
	return cycles
}

// TestClosedFormBounds checks two bounds that follow from the hardware
// configuration alone, on every named configuration under both core models:
// a controller's bus transfers fit in the run's cycles (also checked on
// every run of TestAccountingIdentities and TestMixBusAccounting), and a
// dependent pointer chain larger than the L2 costs at least DRAM's minimum
// latency per load. Only the IdealLDS oracle, which turns LDS misses into
// hits, may break the second bound, and it must. The bus bound is also
// checked on a shared-DRAM mix of mst and the chain.
func TestClosedFormBounds(t *testing.T) {
	p := workload.Params{Scale: 0.05, Seed: 5}
	minLat := dram.DefaultConfig(1).MinLatency()
	for _, config := range NamedConfigs() {
		sp, err := Named(config, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, coreKind := range []string{CoreInterval, CoreOoO} {
			label := config + "/" + coreKind
			r, err := RunSingleSpec(chainBench, p, sp.WithCore(coreKind, nil))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkBusBound(t, label+" chain", r.BusTransfers, r.Cycles, dram.DefaultConfig(1))
			perLoad := r.Cycles / r.Mem.Accesses
			if r.Mem.Accesses != chainNodes {
				t.Fatalf("%s: %d accesses, want %d", label, r.Mem.Accesses, chainNodes)
			}
			if sp.IdealLDS {
				if perLoad >= minLat {
					t.Errorf("%s: IdealLDS chain costs %d cycles per load, want below DRAM's minimum %d",
						label, perLoad, minLat)
				}
			} else if perLoad < minLat {
				t.Errorf("%s: dependent chain costs %d cycles per load, below DRAM's minimum %d",
					label, perLoad, minLat)
			}
		}
		mr, err := RunMultiSpec([]string{"mst", chainBench}, p, sp)
		if err != nil {
			t.Fatalf("%s mix: %v", config, err)
		}
		checkBusBound(t, config+" mix", mr.BusTransfers, mixCycles(mr), dram.DefaultConfig(2))
	}
}
