package exp

import (
	"fmt"
	"sort"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/dram"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/sim"
)

// Sec3Impl compares the paper's two profiling implementations (Section 3,
// "Profiling Implementation"): offline cache-hierarchy simulation with full
// observability vs informing-load operations on the target machine. Both
// produce hint tables; the report shows how much they agree and how the
// resulting ECDP+throttling systems perform.
func Sec3Impl(c *Context) Report {
	benches := ablationBenches
	g := c.Grids(benches, Base, ECDPT, Prof)
	informing := make([]*core.HintTable, len(benches))
	res := perBench(benches, func(i int, b string) sim.Result {
		prof, err := c.Jobs().ProfileInforming(b, c.TrainParams)
		if err != nil {
			c.noteJobErr(fmt.Errorf("informing-loads profiling %s: %w", b, err))
			prof = &profiling.Profile{}
		}
		informing[i] = prof.Hints(0)
		return c.run(b, sim.NewSpec("ecdp+thr(informing)",
			"stream", "cdp", "throttle").WithHints(informing[i]))
	})
	r := Report{
		ID:    "sec3impl",
		Title: "Profiling implementations: simulation vs informing loads (Section 3)",
		Notes: []string{"the paper sketches both implementations and uses the simulation one; they should broadly agree"},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"bit-agreement", f3, nil, func(i int) float64 { return hintAgreement(g[i].Hints, informing[i]) }},
		{"simulated-hints", f3, nil, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"informing-hints", f3, nil, func(i int) float64 { return res[i].IPC / g[i].Base.IPC }},
	})
	return r
}

// hintAgreement is the fraction of hint bits two tables set alike, over the
// union of their hinted loads (1 when neither hints anything).
func hintAgreement(a, b *core.HintTable) float64 {
	pcs := map[uint32]bool{}
	for _, pc := range a.PCs() {
		pcs[pc] = true
	}
	for _, pc := range b.PCs() {
		pcs[pc] = true
	}
	var pcList []uint32
	for pc := range pcs {
		pcList = append(pcList, pc)
	}
	sort.Slice(pcList, func(x, y int) bool { return pcList[x] < pcList[y] })
	agree, total := 0, 0
	for _, pc := range pcList {
		av, _ := a.Lookup(pc)
		bv, _ := b.Lookup(pc)
		for off := -16; off < 16; off++ {
			total++
			if av.Allows(off) == bv.Allows(off) {
				agree++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(agree) / float64(total)
}

// AblateBlockSize compares the 64-byte cache blocks used throughout this
// reproduction (the paper's hint-vector worked example and its FDP
// comparison) against the 128-byte lines of the paper's Table 5. A 128-byte
// block doubles both the pointers visible to each CDP scan and the bus
// occupancy per transfer.
func AblateBlockSize(c *Context) Report {
	benches := ablationBenches
	g := c.Grids(benches, Base, ECDPT, Prof)

	mem128 := memsys.DefaultConfig()
	mem128.BlockSize = 128
	dram128 := dram.DefaultConfig(1)
	dram128.BusCycles = 80   // 128 B over the same 8 B bus at 5:1
	dram128.FillCycles = 210 // keep the 450-cycle uncontended latency
	dram128.BlockShift = 7

	res := c.sweep(benches, func(i int) []sim.Spec {
		base := sim.NewSpec("stream-128B", "stream")
		base.MemCfg, base.DRAMCfg = &mem128, &dram128
		ours := sim.NewSpec("ecdp+thr-128B", "stream", "cdp", "throttle").WithHints(g[i].Hints)
		ours.MemCfg, ours.DRAMCfg = &mem128, &dram128
		return []sim.Spec{base, ours}
	})
	r := Report{
		ID:    "ablate-blocksize",
		Title: "Cache block size: 64 B (used here) vs 128 B (paper Table 5)",
		Notes: []string{
			"the paper's Table 5 lists 128 B lines while its hint-vector example and FDP comparison use 64 B;",
			"each gain column is relative to the stream baseline at the same block size",
			fmt.Sprintf("profiling reuses the 64 B hint tables (offsets are block-size independent; %d-bit vectors hold both)", 32)},
	}
	r.Header, r.Rows = table("bench", benches, []column{
		{"gain@64B", f3, nil, func(i int) float64 { return g[i].ECDPT.IPC / g[i].Base.IPC }},
		{"gain@128B", f3, nil, func(i int) float64 { return res[i][1].IPC / res[i][0].IPC }},
		{"bytesPKI:base64", f1, nil, func(i int) float64 { return g[i].Base.BPKI * 64 }},
		{"bytesPKI:base128", f1, nil, func(i int) float64 { return res[i][0].BPKI * 128 }},
	})
	return r
}
