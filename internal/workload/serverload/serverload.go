// Package serverload provides the beyond-the-paper server-class workload
// family: pointer-dense, irregular-footprint request-serving programs of the
// kind the server-prefetching survey (arXiv:2009.00715) identifies as the
// hardest regime for hardware prefetchers. Where the paper's SPEC/Olden
// proxies model one program traversing its own structures, these proxies
// model a server draining a Zipfian request stream from many users against
// million-object shared state:
//
//   - kvstore: a hash-mapped key-value store — bucket array, hash-chain
//     collision lists, and an LRU list threaded through the values that every
//     GET splices (pointer-chase loads and stores);
//   - btree: a B+-tree serving range scans — root-to-leaf descents followed
//     by linked-leaf scans dereferencing per-record pointers;
//   - graphserve: a graph-serving node with power-law fan-out — Zipfian
//     vertex lookups expanding one- and two-hop neighborhoods through
//     adjacency arrays of vertex pointers.
//
// All three register through workload.Register, so they are first-class
// sim.Spec workloads: every randomized decision (layout shuffles, chain
// assignment, the request stream itself) is a pure function of
// {family, Scale, Seed}, and all address math goes through the checked
// workload helpers (SizeU32/WordAddr) so the ldslint checkedmath
// analyzer holds for this package exactly as for internal/workload.
//
// At Scale 1.0 each family holds on the order of a million live objects
// (keys+values, records, vertices+edges) and serves a hundred-thousand-class
// request stream — a heavy multi-user traffic model. Data dimensions scale
// sub-linearly (workload.ScaledData) so even small -scale test inputs
// overflow the simulated L2.
package serverload

import (
	"fmt"
	"math/rand"

	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
)

// Families returns the server workload family names, sorted.
func Families() []string { return []string{"btree", "graphserve", "kvstore"} }

// Zipfian request-popularity parameters. s=1.07 is the classic YCSB-style
// skew: the hot tail is pronounced but the stream still touches most of the
// object space over a long run.
const (
	zipfS = 1.07
	zipfV = 1
)

// computePad models server request-handling code: roughly one instruction in
// three touches memory.
const computePad = 2

// build is the shared state of one serverload construction.
type build struct {
	rng   *rand.Rand
	b     *trace.Builder
	alloc *mem.Allocator
}

func newBuild(name string, p workload.Params, heapBytes uint32) *build {
	m := mem.New()
	return &build{
		rng:   rand.New(rand.NewSource(p.Seed)),
		b:     trace.NewBuilder(name, m, computePad),
		alloc: mem.NewAllocator(m, heapBytes, 4),
	}
}

// heapBudget sums object-population byte counts (computed in uint64 so huge
// -scale cannot wrap), adds 25% slack for alignment and auxiliary tables,
// and fails loudly when the total cannot fit the simulated heap region.
func heapBudget(parts ...uint64) uint32 {
	var total uint64
	for _, p := range parts {
		total += p
	}
	total += total / 4
	if limit := uint64(mem.StackBase - mem.HeapBase); total > limit {
		panic(fmt.Sprintf("serverload: %d heap bytes exceed the %d-byte simulated heap; reduce the scale", total, limit))
	}
	return uint32(total)
}

// bytesOf is n objects of elem bytes each, in uint64 for heapBudget.
func bytesOf(n int, elem uint32) uint64 { return uint64(n) * uint64(elem) }

// shuffledAlloc allocates n objects of the given size in a heap-like order:
// short runs of logically consecutive objects stay address-consecutive, but
// the runs land in random order (same rationale as the in-package workload
// helper: occasional false streams for the stream prefetcher, unstreamable
// linked traversals).
func (bd *build) shuffledAlloc(n int, size uint32) []uint32 {
	maxRun := int(4 * 64 / size)
	if maxRun < 2 {
		maxRun = 2
	}
	if maxRun > 16 {
		maxRun = 16
	}
	addrs := make([]uint32, n)
	tmp := make([]uint32, n)
	for i := 0; i < n; i++ {
		tmp[i] = bd.alloc.Alloc(size)
	}
	type run struct{ start, len int }
	var runs []run
	for i := 0; i < n; {
		l := 1 + bd.rng.Intn(maxRun)
		if i+l > n {
			l = n - i
		}
		runs = append(runs, run{i, l})
		i += l
	}
	slot := 0
	for _, ri := range bd.rng.Perm(len(runs)) {
		r := runs[ri]
		for k := 0; k < r.len; k++ {
			addrs[r.start+k] = tmp[slot]
			slot++
		}
	}
	return addrs
}

// zipfIDs draws n request targets from a Zipfian popularity distribution
// over [0, nObjs) and scatters the popularity ranks across the id space
// with a seeded permutation, so hot objects are uncorrelated with
// allocation order (a hot key is not "the first key allocated").
func (bd *build) zipfIDs(n, nObjs int) []int {
	z := rand.NewZipf(bd.rng, zipfS, zipfV, uint64(nObjs-1))
	perm := bd.rng.Perm(nObjs)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = perm[int(z.Uint64())]
	}
	return ids
}
