// Package workload provides synthetic proxy programs for the paper's
// benchmark set: the 15 pointer-intensive applications of its main
// evaluation (from SPEC CPU2006/2000, Olden, and pfast) plus
// non-pointer-intensive streaming proxies for Section 6.7 and the multi-core
// mixes.
//
// Each proxy builds real linked data structures in simulated memory —
// pointer fields hold genuine 32-bit virtual addresses — and emits a
// dependence-annotated trace. The proxies are designed to reproduce the
// *structural* properties the paper's mechanisms react to, per benchmark:
// which pointer groups are beneficial vs harmful, whether the access stream
// is stream-prefetchable, how deep the pointer chains are, and how large the
// working set is relative to the 1 MB L2. Absolute IPCs differ from the
// paper's testbed; the shape of the results is the reproduction target.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"ldsprefetch/internal/mem"
	"ldsprefetch/internal/trace"
)

// Params selects the input set of a workload.
type Params struct {
	// Scale multiplies data-structure sizes and iteration counts.
	// 1.0 is the reference input; the profiling ("train") input uses a
	// smaller scale and different seed, as the paper profiles with the
	// train input set (Section 5).
	Scale float64
	// Seed drives all randomized structure and access decisions.
	Seed int64
}

// Ref returns the reference (measurement) input parameters.
func Ref() Params { return Params{Scale: 1.0, Seed: 1} }

// Train returns the profiling input parameters (smaller, different seed).
// Data sizes scale sub-linearly (see scaledData), so the train input's
// working set still exceeds the last-level cache — as real train inputs do —
// which profiling needs to observe realistic eviction behaviour.
func Train() Params { return Params{Scale: 0.5, Seed: 1009} }

// Test returns a tiny input for unit tests.
func Test() Params { return Params{Scale: 0.05, Seed: 7} }

// Generator describes one benchmark proxy.
type Generator struct {
	// Name matches the paper's benchmark name.
	Name string
	// PointerIntensive marks the 15 benchmarks of the main evaluation.
	PointerIntensive bool
	// Server marks the beyond-the-paper server-class families (and replayed
	// trace captures): they are excluded from the paper's pointer-intensive
	// and non-pointer-intensive benchmark lists so the reproduced figures
	// keep their exact benchmark sets, and surface through ServerNames.
	Server bool
	// Description summarizes the modelled behaviour.
	Description string
	// Build generates the trace for the given input parameters.
	Build func(p Params) *trace.Trace
}

// registryMu guards registry: benchmarks register at init time, but trace
// replays (FromTraceFile) register at runtime, potentially while schedulers
// resolve names concurrently.
var (
	registryMu sync.RWMutex
	//ldslint:guardedby registryMu
	registry = map[string]Generator{}
)

// paperOrder is the benchmark order of the paper's Tables 1 and 6, followed
// by the non-pointer-intensive proxies.
var paperOrder = []string{
	"perlbench", "gcc", "mcf", "astar", "xalancbmk", "omnetpp", "parser",
	"art", "ammp", "bisort", "health", "mst", "perimeter", "voronoi", "pfast",
	"libquantum", "gemsfdtd", "h264ref", "lbm",
}

func register(g Generator) {
	if err := Register(g); err != nil {
		panic(err.Error())
	}
}

// Register adds a workload generator to the catalog. The in-package proxies
// register at init time; external families (internal/workload/serverload)
// and trace replays (FromTraceFile) use this seam. A nil Build or a
// duplicate name is an error.
func Register(g Generator) error {
	if g.Name == "" || g.Build == nil {
		return fmt.Errorf("workload: generator needs a name and a Build func")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[g.Name]; dup {
		return fmt.Errorf("workload: duplicate benchmark %q", g.Name)
	}
	registry[g.Name] = g
	return nil
}

func ordered() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	inPaper := make(map[string]bool, len(paperOrder))
	for _, n := range paperOrder {
		inPaper[n] = true
		if _, ok := registry[n]; ok {
			out = append(out, n)
		}
	}
	// Any extras registered outside the paper order come last, sorted.
	var names []string
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !inPaper[n] {
			out = append(out, n)
		}
	}
	return out
}

// UnknownBenchmarkError reports a benchmark name that is not in the
// catalog. The catalog is embedded so CLI and HTTP error payloads are
// actionable as-is (mirroring sim.UnknownComponentError for spec
// components).
type UnknownBenchmarkError struct {
	Name string
}

func (e *UnknownBenchmarkError) Error() string {
	return fmt.Sprintf("workload: unknown benchmark %q (known benchmarks: %s)",
		e.Name, strings.Join(Names(), ", "))
}

// Get returns the generator for a benchmark name. The error is a
// *UnknownBenchmarkError carrying the full catalog.
func Get(name string) (Generator, error) {
	registryMu.RLock()
	g, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return Generator{}, &UnknownBenchmarkError{Name: name}
	}
	return g, nil
}

// Names returns all benchmark names in paper table order.
func Names() []string { return ordered() }

// PaperNames returns the paper's benchmark suite in paper order, excluding
// server-class families (which registered packages may or may not link in).
func PaperNames() []string {
	var out []string
	for _, n := range ordered() {
		if g, _ := Get(n); !g.Server {
			out = append(out, n)
		}
	}
	return out
}

// PointerIntensiveNames returns the paper's 15 pointer-intensive benchmarks
// in the order of paper Table 1/6. Server-class families are excluded: the
// paper's figures are defined over its exact benchmark set.
func PointerIntensiveNames() []string {
	var out []string
	for _, n := range ordered() {
		if g, _ := Get(n); g.PointerIntensive && !g.Server {
			out = append(out, n)
		}
	}
	return out
}

// NonPointerIntensiveNames returns the streaming/compute proxies.
func NonPointerIntensiveNames() []string {
	var out []string
	for _, n := range ordered() {
		if g, _ := Get(n); !g.PointerIntensive && !g.Server {
			out = append(out, n)
		}
	}
	return out
}

// ServerNames returns the registered server-class workload families (and any
// replayed trace captures), sorted by name.
func ServerNames() []string {
	var out []string
	for _, n := range ordered() {
		if g, _ := Get(n); g.Server {
			out = append(out, n)
		}
	}
	return out
}

// buildKey identifies one functional build: every randomized decision a
// generator makes is a pure function of {benchmark, Scale, Seed}.
type buildKey struct {
	name  string
	scale float64
	seed  int64
}

type buildEntry struct {
	once sync.Once
	tr   *trace.Trace
}

var (
	buildMu sync.Mutex
	//ldslint:guardedby buildMu
	buildCache = map[buildKey]*buildEntry{}
	//ldslint:guardedby buildMu
	buildOrder []buildKey
)

// buildCacheCap bounds the number of master builds retained, evicted in
// insertion order. A full experiment grid touches each benchmark at two
// inputs (reference + train), so the default keeps every build of the
// 19-benchmark suite resident with room to spare.
const buildCacheCap = 64

// BuildShared returns a private clone of the functional build of benchmark
// name at input p, memoizing the build itself. Constructing a trace is the
// dominant setup cost of a simulation, and experiment grids replay the same
// {benchmark, input} pair under many prefetcher configurations; the cache
// builds the master at most once per {name, Scale, Seed} and never replays
// it, handing out clones that share the immutable op sequence and deep-copy
// only the memory image. Safe for concurrent use.
func BuildShared(name string, p Params) (*trace.Trace, error) {
	g, err := Get(name)
	if err != nil {
		return nil, err
	}
	key := buildKey{name, p.Scale, p.Seed}
	buildMu.Lock()
	e := buildCache[key]
	if e == nil {
		if len(buildOrder) >= buildCacheCap {
			delete(buildCache, buildOrder[0])
			buildOrder = buildOrder[1:]
		}
		e = &buildEntry{}
		buildCache[key] = e
		buildOrder = append(buildOrder, key)
	}
	buildMu.Unlock()
	e.once.Do(func() { e.tr = g.Build(p) })
	return e.tr.Clone(), nil
}

// build is the shared state of one workload construction.
type build struct {
	rng   *rand.Rand
	b     *trace.Builder
	alloc *mem.Allocator
}

func newBuild(name string, p Params, heapBytes uint32, computePad int) *build {
	m := mem.New()
	return &build{
		rng:   rand.New(rand.NewSource(p.Seed)),
		b:     trace.NewBuilder(name, m, computePad),
		alloc: mem.NewAllocator(m, heapBytes, 4),
	}
}

// maxScaled bounds scaled counts at the largest float64-exact integer.
// Beyond it the float→int conversion below is not even well defined (the
// result is implementation-specific for out-of-range values), so an absurd
// -scale must fail loudly instead of yielding a garbage iteration count.
const maxScaled = 1 << 53

// scaled applies the input scale linearly with a floor of 1; use it for
// iteration/work counts.
func scaled(n int, p Params) int {
	f := float64(n) * p.Scale
	if f >= maxScaled {
		panic(fmt.Sprintf("workload: scale %g overflows count %d; reduce the scale", p.Scale, n))
	}
	v := int(f)
	if v < 1 {
		v = 1
	}
	return v
}

// scaledData applies the square root of the input scale; use it for data-
// structure dimensions. Sub-linear data scaling keeps smaller inputs' (e.g.
// the train input's) working sets above the last-level-cache size, so cache
// behaviour — and hence pointer-group profiling — stays representative.
func scaledData(n int, p Params) int {
	s := p.Scale
	if s <= 0 {
		s = 1
	}
	f := float64(n) * math.Sqrt(s)
	// Data dimensions become uint32 allocation sizes after multiplying by an
	// element size; cap them well below 2^32 so the product check in sizeU32
	// is reachable with an intelligible count rather than a converted-float
	// artifact.
	if f >= 1<<26 {
		panic(fmt.Sprintf("workload: scale %g overflows data dimension %d; reduce the scale", p.Scale, n))
	}
	v := int(f)
	if v < 1 {
		v = 1
	}
	return v
}

// sizeU32 converts an element count times an element size into a uint32
// allocation size, panicking when the product exceeds the 32-bit address
// space. Generators must use it for any count-dependent Alloc size: the bare
// uint32(elem*n) cast would silently truncate at large -scale and hand back
// an allocation far smaller than requested.
func sizeU32(n int, elem uint32) uint32 {
	s := uint64(n) * uint64(elem)
	if n < 0 || s > math.MaxUint32 {
		panic(fmt.Sprintf("workload: allocation of %d x %d bytes overflows the 32-bit address space; reduce the scale", n, elem))
	}
	return uint32(s)
}

// addU32 adds two 32-bit addresses/offsets with a wrap check. The raw
// `a + b` would wrap silently at large -scale and alias the low heap.
func addU32(a, b uint32) uint32 {
	s := uint64(a) + uint64(b)
	if s > math.MaxUint32 {
		panic(fmt.Sprintf("workload: address %#x + offset %#x wraps the 32-bit address space; reduce the scale", a, b))
	}
	return uint32(s)
}

// elemAddr returns the address of element i of an array of elem-byte objects
// at base, computing the offset in uint64 and panicking on 32-bit wrap.
func elemAddr(base uint32, i int, elem uint32) uint32 {
	if i < 0 {
		panic(fmt.Sprintf("workload: negative element index %d", i))
	}
	s := uint64(base) + uint64(i)*uint64(elem)
	if s > math.MaxUint32 {
		panic(fmt.Sprintf("workload: element %d x %d bytes at %#x wraps the 32-bit address space; reduce the scale", i, elem, base))
	}
	return uint32(s)
}

// wordAddr returns the address of the i'th 4-byte word at base; the common
// case of elemAddr for the proxies' word-grained tables.
func wordAddr(base uint32, i int) uint32 { return elemAddr(base, i, 4) }

// The exported forms of the scaling and checked 32-bit address-math helpers
// are the seam external workload families (internal/workload/serverload)
// build on: the ldslint checkedmath analyzer polices those packages too, and
// these helpers are the sanctioned replacements for raw uint32 arithmetic.

// Scaled applies the input scale linearly with a floor of 1 (see scaled).
func Scaled(n int, p Params) int { return scaled(n, p) }

// ScaledData applies sub-linear (square-root) data scaling (see scaledData).
func ScaledData(n int, p Params) int { return scaledData(n, p) }

// SizeU32 converts count×elem into a checked uint32 allocation size.
func SizeU32(n int, elem uint32) uint32 { return sizeU32(n, elem) }

// AddU32 adds two 32-bit addresses/offsets with a wrap check.
func AddU32(a, b uint32) uint32 { return addU32(a, b) }

// ElemAddr returns the checked address of element i of an elem-byte array.
func ElemAddr(base uint32, i int, elem uint32) uint32 { return elemAddr(base, i, elem) }

// WordAddr returns the checked address of the i'th 4-byte word at base.
func WordAddr(base uint32, i int) uint32 { return wordAddr(base, i) }

// shuffledAlloc allocates n objects of the given size, returning their
// addresses indexed by logical id, in an order that mimics a real heap:
// short runs of logically consecutive objects stay address-consecutive
// (allocators hand out mostly increasing addresses within a burst), but the
// runs themselves land in random order. The short runs give the stream
// prefetcher occasional false streams to chase — the source of the useless
// stream prefetches the paper's throttling suppresses — while the global
// shuffle keeps linked traversals unstreamable.
func (bd *build) shuffledAlloc(n int, size uint32) []uint32 {
	// Default run length targets ~4 cache blocks of consecutive objects:
	// just enough for the stream prefetcher to train and overshoot (the
	// useless stream prefetches the paper's throttling reclaims), not
	// enough for it to genuinely cover linked traversals.
	maxRun := int(4 * 64 / size)
	if maxRun < 2 {
		maxRun = 2
	}
	if maxRun > 16 {
		maxRun = 16
	}
	return bd.shuffledAllocRuns(n, size, maxRun)
}

// shuffledAllocRuns is shuffledAlloc with an explicit maximum run length;
// short runs defeat the stream prefetcher (it cannot confirm a direction and
// profit before the run ends) while still giving cache blocks same-structure
// neighbours.
func (bd *build) shuffledAllocRuns(n int, size uint32, maxRun int) []uint32 {
	addrs := make([]uint32, n)
	tmp := make([]uint32, n)
	for i := 0; i < n; i++ {
		tmp[i] = bd.alloc.Alloc(size)
	}
	// Split logical ids into runs of 1..maxRun objects, then place the
	// runs in permuted order.
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

// seqAlloc allocates n objects consecutively (allocation order == logical
// order), the layout the paper's Figure 3 relies on.
func (bd *build) seqAlloc(n int, size uint32) []uint32 {
	addrs := make([]uint32, n)
	for i := range addrs {
		addrs[i] = bd.alloc.Alloc(size)
	}
	return addrs
}
