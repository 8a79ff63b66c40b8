// Package trace defines the dependence-annotated instruction trace format
// produced by workload generators and consumed by the timing simulator.
//
// A trace is the program-order sequence of retired micro-operations of a
// (simulated) program run, together with the initial simulated memory image.
// Each memory operation carries its static instruction address (PC), the data
// address it accesses, and the index of the older operation that produces the
// value it depends on (for a pointer-chasing load, the load that fetched the
// pointer). The dependence edges are what make LDS misses serialize in the
// timing model while streaming misses overlap — the central asymmetry the
// paper's prefetchers address.
package trace

import (
	"fmt"

	"ldsprefetch/internal/mem"
)

// Kind classifies a trace operation.
type Kind uint8

const (
	// Compute represents non-memory work; it completes in one cycle and
	// exists to model instruction mix and issue bandwidth.
	Compute Kind = iota
	// Load reads 4 bytes from Addr.
	Load
	// Store writes the 32-bit value Val to Addr when it executes.
	Store
	// Branch is a conditional branch at PC whose (taken-side) target is
	// Addr; Taken records the resolved direction. A backward target
	// (Addr < PC) is a loop back-edge, a forward target an exit/skip.
	// Branch ops carry no data access: the dependence-graph core ignores
	// them entirely (reports are unchanged by their presence), while the
	// out-of-order core fetches, predicts and resolves them, generating
	// wrong-path memory traffic on mispredictions.
	Branch
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NoDep marks an operation with no producer dependence.
const NoDep int32 = -1

// Op is one micro-operation of the trace.
type Op struct {
	Addr uint32 // data address (Load/Store); taken-side target PC (Branch)
	Val  uint32 // value stored (Store only)
	Dep  int32  // index of producer op this op waits for, or NoDep
	PC   uint32 // static instruction address (Load/Store/Branch)
	// N is the number of instructions this op represents. Memory ops and
	// branches are always 1; Compute ops may batch up to MaxBatch
	// instructions into one trace record, keeping traces compact while
	// preserving a realistic instruction mix. Zero means 1.
	N    uint8
	Kind Kind
	// LDS marks loads whose address was produced by following a pointer in
	// a linked data structure. The Figure 1 "ideal LDS prefetching"
	// experiment converts L2 misses of LDS loads into hits.
	LDS bool
	// Taken is the resolved direction of a Branch op.
	Taken bool
}

// Instructions returns the instruction count of the op (N, minimum 1).
func (o *Op) Instructions() int64 {
	if o.N == 0 {
		return 1
	}
	return int64(o.N)
}

// MaxBatch is the largest instruction batch a single Compute op may carry.
// It is kept small relative to the 256-entry instruction window so that
// window-occupancy modelling stays accurate at batch granularity.
const MaxBatch = 128

// Trace is a complete program run: initial memory image plus the
// program-order op sequence. Stores are applied to Mem during timing replay,
// so Mem reflects pre-run contents.
type Trace struct {
	Name string
	Ops  []Op
	Mem  *mem.Memory
}

// Clone returns a copy of the trace that shares the immutable op sequence but
// owns a private memory image. Timing replay mutates Mem (the traced stores
// are re-applied in program order) while never writing Ops, so repeated or
// concurrent replays of one functional build each take a clone; see
// workload.BuildShared.
func (t *Trace) Clone() *Trace {
	return &Trace{Name: t.Name, Ops: t.Ops, Mem: t.Mem.Clone()}
}

// chunkOps is the length of one OpBuffer chunk: 64 Ki ops, 1.25 MiB.
const chunkOps = 1 << 16

// OpBuffer accumulates a program-order op stream of unknown final length.
// Ops go into fixed-size chunks, so appending never re-copies the ops
// already held, and Ops concatenates them once into a slice whose capacity
// equals its length: a cached trace carries no spare capacity. Only the
// first chunk grows by append, which keeps short streams small.
type OpBuffer struct {
	full [][]Op // filled chunks, chunkOps ops each
	cur  []Op   // the chunk being filled
}

// Append adds op to the end of the stream and returns its index.
func (s *OpBuffer) Append(op Op) int32 {
	if len(s.cur) == chunkOps {
		s.full = append(s.full, s.cur)
		s.cur = make([]Op, 0, chunkOps)
	}
	s.cur = append(s.cur, op)
	return int32(s.Len() - 1)
}

// Len returns the number of ops appended so far.
func (s *OpBuffer) Len() int { return len(s.full)*chunkOps + len(s.cur) }

// Ops returns the whole stream as one slice with cap == len and empties the
// buffer.
func (s *OpBuffer) Ops() []Op {
	ops := make([]Op, 0, s.Len())
	for _, c := range s.full {
		ops = append(ops, c...)
	}
	ops = append(ops, s.cur...)
	s.full, s.cur = nil, nil
	return ops
}

// Builder incrementally constructs a Trace. Workload generators use it both
// to emit ops and to perform the loads/stores functionally against the
// simulated memory, so that the emitted address stream and the memory image
// stay consistent by construction. Ops accumulate in an OpBuffer and reach
// the Trace only when Trace is called; op indices are global from the
// start.
type Builder struct {
	t       *Trace
	ops     OpBuffer
	padding int // compute ops inserted after every memory op
	undo    []undoRec
	done    bool
}

type undoRec struct{ addr, old uint32 }

// NewBuilder returns a Builder for a trace over m.
//
// computePad is the number of Compute ops appended after each memory
// operation, modelling the non-memory instruction mix of the program (a pad
// of 3 approximates a program where 1 in 4 instructions touches memory).
func NewBuilder(name string, m *mem.Memory, computePad int) *Builder {
	if computePad < 0 {
		computePad = 0
	}
	return &Builder{
		t:       &Trace{Name: name, Mem: m},
		padding: computePad,
	}
}

// Len returns the number of ops emitted so far.
func (b *Builder) Len() int { return b.ops.Len() }

// Mem returns the underlying simulated memory.
func (b *Builder) Mem() *mem.Memory { return b.t.Mem }

func (b *Builder) pad() {
	b.Compute(b.padding)
}

// Compute emits n instructions of independent compute work, batched into
// ⌈n/MaxBatch⌉ ops.
func (b *Builder) Compute(n int) {
	for n > 0 {
		k := n
		if k > MaxBatch {
			k = MaxBatch
		}
		b.ops.Append(Op{Kind: Compute, Dep: NoDep, N: uint8(k)})
		n -= k
	}
}

// Load emits a 4-byte load at pc from addr, functionally reads the value from
// memory, and returns (value, opIndex). dep is the index of the op producing
// the address (NoDep if none); lds tags the load as a pointer-chase access.
func (b *Builder) Load(pc, addr uint32, dep int32, lds bool) (uint32, int32) {
	idx := b.ops.Append(Op{Kind: Load, Addr: addr, Dep: dep, PC: pc, LDS: lds})
	b.pad()
	return b.t.Mem.Read32(addr), idx
}

// Store emits a 4-byte store at pc of val to addr and applies it to memory
// immediately, so later functional loads during trace construction observe
// it. The store is also recorded in an undo log: Trace rewinds the memory to
// its pre-run image so that the timing replay — which re-applies the traced
// stores in program order — sees time-accurate contents. This matters for
// content-directed prefetching: a scanned cache block must contain the
// pointers as of the scan time, not the end of the run (e.g. bisort's
// subtree swaps rewrite child pointers mid-run).
func (b *Builder) Store(pc, addr, val uint32, dep int32) int32 {
	idx := b.ops.Append(Op{Kind: Store, Addr: addr, Val: val, Dep: dep, PC: pc})
	b.undo = append(b.undo, undoRec{addr, b.t.Mem.Read32(addr)})
	b.t.Mem.Write32(addr, val)
	b.pad()
	return idx
}

// Branch emits a conditional branch at pc with taken-side target and the
// resolved direction taken, and returns its op index. dep is the index of the
// load producing the branch condition (NoDep for branches whose condition is
// register-resident, e.g. a counted loop's back-edge). Branches carry no
// compute padding: they are part of the instruction mix the padding already
// models, not an addition to it.
func (b *Builder) Branch(pc, target uint32, taken bool, dep int32) int32 {
	return b.ops.Append(Op{Kind: Branch, Addr: target, Dep: dep, PC: pc, Taken: taken})
}

// Trace finalizes the trace: the ops are gathered into one exact-size slice,
// the memory image is rewound to its pre-run state (see Store) and the trace
// is returned. Later calls return the same trace. Emitting ops after Trace
// is a programming error.
func (b *Builder) Trace() *Trace {
	if !b.done {
		for i := len(b.undo) - 1; i >= 0; i-- {
			b.t.Mem.Write32(b.undo[i].addr, b.undo[i].old)
		}
		b.undo = nil
		b.t.Ops = b.ops.Ops()
		b.done = true
	}
	return b.t
}

// Stats summarizes the composition of a trace.
type Stats struct {
	Ops          int
	Loads        int
	Stores       int
	Computes     int   // compute ops (each may batch many instructions)
	Branches     int   // conditional branch ops
	Taken        int   // branches whose resolved direction is taken
	Instructions int64 // total instructions represented
	LDSLoads     int
}

// Add counts op into s.
func (s *Stats) Add(op *Op) {
	s.Ops++
	s.Instructions += op.Instructions()
	switch op.Kind {
	case Load:
		s.Loads++
		if op.LDS {
			s.LDSLoads++
		}
	case Store:
		s.Stores++
	case Branch:
		s.Branches++
		if op.Taken {
			s.Taken++
		}
	default:
		s.Computes++
	}
}

// Summarize computes composition statistics for t.
func Summarize(t *Trace) Stats {
	var s Stats
	for i := range t.Ops {
		s.Add(&t.Ops[i])
	}
	return s
}

// Validate checks structural invariants of a trace: dependence edges must
// point backwards to load operations (so branches are never producers),
// loads/stores/branches must carry PCs, and branches must carry targets.
// It returns the first violation found, or nil.
func Validate(t *Trace) error {
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.Dep != NoDep {
			if op.Dep < 0 || op.Dep >= int32(i) {
				return fmt.Errorf("trace %s: op %d dep %d not strictly earlier", t.Name, i, op.Dep)
			}
			if t.Ops[op.Dep].Kind != Load {
				return fmt.Errorf("trace %s: op %d depends on non-load op %d (%v)", t.Name, i, op.Dep, t.Ops[op.Dep].Kind)
			}
		}
		if op.Kind != Compute && op.PC == 0 {
			return fmt.Errorf("trace %s: op %d (%v) has zero PC", t.Name, i, op.Kind)
		}
		if op.Kind == Branch && op.Addr == 0 {
			return fmt.Errorf("trace %s: branch op %d has zero target", t.Name, i)
		}
	}
	return nil
}
