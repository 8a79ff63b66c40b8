package ldsprefetch_test

import (
	"fmt"

	"ldsprefetch/internal/cpu"
	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/profiling"
	"ldsprefetch/internal/workload"
)

// Example_profiling runs the paper's compiler profiling pass (Section 3) on
// a small mst input and prints what the compiler would encode into the new
// load instructions: the most active pointer groups it observed, and the hint
// bit vector of each load with a beneficial group. ProfileHints returns the
// same hint table.
func Example_profiling() {
	g, _ := workload.Get("mst")
	tr := g.Build(workload.Params{Scale: 0.05, Seed: 1009})
	prof := profiling.Collect(tr, memsys.DefaultConfig(), cpu.DefaultConfig())

	b, h := prof.BeneficialHarmful()
	fmt.Printf("%d pointer groups (%d beneficial, %d harmful)\n", b+h, b, h)
	fmt.Printf("%-24s %7s %7s %10s\n", "pointer group", "useful", "useless", "usefulness")
	for _, pg := range prof.TopPGs(5) {
		s := prof.PGs[pg]
		fmt.Printf("%-24s %7d %7d %10.3f\n", pg.String(), s.Useful, s.Useless, s.Usefulness())
	}
	hints := prof.Hints(0)
	fmt.Printf("hint table (%d loads):\n", hints.Len())
	for _, pc := range hints.PCs() {
		v, _ := hints.Lookup(pc)
		fmt.Printf("  pc=%#x pos=%#08x neg=%#08x\n", pc, v.Pos, v.Neg)
	}
	// Output:
	// 36 pointer groups (24 beneficial, 12 harmful)
	// pointer group             useful useless usefulness
	// PG(pc=0x50104,off=-12)       131    1278      0.093
	// PG(pc=0x50104,off=-44)        87    1321      0.062
	// PG(pc=0x50104,off=-28)        80    1312      0.057
	// PG(pc=0x50104,off=-60)        91    1300      0.065
	// PG(pc=0x50108,off=-8)         84    1215      0.065
	// hint table (4 loads):
	//   pc=0x50100 pos=0x0000000b neg=0x00003ffe
	//   pc=0x50104 pos=0x00000008 neg=0x00001111
	//   pc=0x50108 pos=0x00000011 neg=0x00000000
	//   pc=0x5010c pos=0x00000001 neg=0x00000000
}
