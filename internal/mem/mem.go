// Package mem provides the simulated 32-bit virtual memory used by the
// workload programs and the memory-hierarchy simulator.
//
// The memory holds real byte contents, not just an address trace: workload
// programs store 32-bit pointer values into simulated memory, and the
// content-directed prefetcher later scans fetched cache blocks for values
// whose high-order "compare bits" match the block's address. Without real
// contents CDP cannot be simulated faithfully.
//
// The address space is divided into regions chosen so that heap pointers are
// distinguishable by their high-order bits (mirroring how a real 32-bit
// process lays out its address space):
//
//	GlobalBase  0x08000000  globals / static data
//	HeapBase    0x10000000  heap (linked data structures live here)
//	StackBase   0x7ff00000  stack (grows down)
//
// Small integers (node keys, counters) have zero high bytes and therefore
// never alias with heap pointers under an 8-compare-bit matcher.
package mem

import (
	"bytes"
	"fmt"
)

// Region base addresses of the simulated address space.
const (
	GlobalBase uint32 = 0x0800_0000
	HeapBase   uint32 = 0x1000_0000
	StackBase  uint32 = 0x7ff0_0000

	pageShift = 16 // 64 KiB pages
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a paged 32-bit byte-addressable memory. Its 64 KiB pages hang
// off a two-level page directory indexed by the 16-bit page number: the high
// byte selects one of 256 top-level slots, each covering 16 MiB of address
// space, and the low byte selects a page within that slot's leaf. A leaf is
// allocated the first time a page in its region is touched, and a page the
// first time it is written, so a workload pays for the regions it uses
// (globals, heap, stack) rather than for the whole address space. The zero
// value is not ready to use; call New.
type Memory struct {
	dir [dirSlots]*leaf
	// Last-page cache: accesses cluster heavily within a page (pointer
	// chases walk nodes far smaller than the 64 KiB page), so remembering
	// the last resolved page skips the directory walk on the hot path.
	lastPN   uint32
	lastPage []byte
}

// NumPages is the number of pages in the 32-bit address space; valid page
// numbers are below it.
const NumPages = 1 << (32 - pageShift)

const (
	leafBits = 8
	leafSize = 1 << leafBits // pages per leaf (16 MiB of address space)
	dirSlots = NumPages / leafSize
)

// leaf holds the pages of one top-level directory slot; nil entries are
// pages never written.
type leaf [leafSize][]byte

// noPage is the lastPN sentinel. Page numbers only span addr>>pageShift
// (16 bits), so the all-ones value can never match a real page.
const noPage = ^uint32(0)

// New returns an empty memory. Reads of unwritten locations return zero.
func New() *Memory {
	return &Memory{lastPN: noPage}
}

// Clone returns a deep copy of the memory image. Traces share one functional
// build per workload (see workload.BuildShared); each simulated core replays
// stores against its own clone.
func (m *Memory) Clone() *Memory {
	c := &Memory{lastPN: noPage}
	for i, l := range &m.dir {
		if l == nil {
			continue
		}
		cl := new(leaf)
		for j, p := range l {
			if p != nil {
				cl[j] = bytes.Clone(p)
			}
		}
		c.dir[i] = cl
	}
	return c
}

// slot returns the directory entry of page pn, allocating its leaf when
// create is set. It returns nil when the leaf is absent and create is not.
func (m *Memory) slot(pn uint32, create bool) *[]byte {
	l := m.dir[pn>>leafBits]
	if l == nil {
		if !create {
			return nil
		}
		l = new(leaf)
		m.dir[pn>>leafBits] = l
	}
	return &l[pn&(leafSize-1)]
}

func (m *Memory) page(addr uint32, create bool) []byte {
	pn := addr >> pageShift
	if pn == m.lastPN {
		return m.lastPage
	}
	s := m.slot(pn, create)
	if s == nil || *s == nil {
		if !create {
			return nil // don't cache misses: the page may be created later
		}
		*s = make([]byte, pageSize)
	}
	m.lastPN, m.lastPage = pn, *s
	return *s
}

// Read8 returns the byte at addr (zero if the page was never written).
func (m *Memory) Read8(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint32, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read32 returns the little-endian 32-bit word at addr. The word may span a
// page boundary.
func (m *Memory) Read32(addr uint32) uint32 {
	if addr&pageMask <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		o := addr & pageMask
		return uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write32 stores a little-endian 32-bit word at addr.
func (m *Memory) Write32(addr, v uint32) {
	if addr&pageMask <= pageSize-4 {
		p := m.page(addr, true)
		o := addr & pageMask
		p[o] = byte(v)
		p[o+1] = byte(v >> 8)
		p[o+2] = byte(v >> 16)
		p[o+3] = byte(v >> 24)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.Write8(addr+i, byte(v>>(8*i)))
	}
}

// ReadBlock copies blockSize bytes starting at the block-aligned address into
// dst. len(dst) determines the block size and addr is aligned down to it.
func (m *Memory) ReadBlock(addr uint32, dst []byte) {
	n := uint32(len(dst))
	addr &^= n - 1
	// Fast path: block within one page (always true for power-of-two block
	// sizes <= pageSize and aligned addresses).
	p := m.page(addr, false)
	if p == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	o := addr & pageMask
	copy(dst, p[o:o+n])
}

// PageSize is the granularity of the page directory, exported for
// serialization code that snapshots and restores whole pages.
const PageSize = pageSize

// Pages returns the numbers of all allocated pages in ascending order.
func (m *Memory) Pages() []uint32 {
	var pns []uint32
	for i, l := range &m.dir {
		if l == nil {
			continue
		}
		for j, p := range l {
			if p != nil {
				pns = append(pns, uint32(i<<leafBits|j))
			}
		}
	}
	return pns
}

// PageBytes returns the contents of page pn, or nil if the page was never
// written. The slice aliases the live page: callers must copy it if they
// outlive the next write to this memory.
func (m *Memory) PageBytes(pn uint32) []byte {
	if s := m.slot(pn, false); s != nil {
		return *s
	}
	return nil
}

// SetPageBytes installs data as the contents of page pn; shorter-than-page
// data is zero-extended (unwritten tails read as zero, as always). A page
// number outside the address space (pn >= NumPages) panics: callers that
// take page numbers from outside the program must reject those first.
func (m *Memory) SetPageBytes(pn uint32, data []byte) {
	if pn >= NumPages {
		panic(fmt.Sprintf("mem: page number %#x is outside the 32-bit address space", pn))
	}
	if len(data) > pageSize {
		panic(fmt.Sprintf("mem: %d bytes exceed the %d-byte page", len(data), pageSize))
	}
	p := make([]byte, pageSize)
	copy(p, data)
	*m.slot(pn, true) = p
	m.lastPN = noPage
}

// Allocator is a bump allocator over the heap region of a Memory. It mimics
// a simple malloc: successive allocations are laid out consecutively (the
// property the paper's pointer-group analysis relies on: "if different nodes
// are allocated consecutively in memory, each pointer field of any other node
// in the same cache block is also at a constant offset"). Each allocation
// starts at the next multiple of the alignment.
type Allocator struct {
	mem   *Memory
	next  uint32
	limit uint32
	align uint32
}

// NewAllocator returns a heap allocator over m starting at HeapBase with the
// given capacity in bytes. align must be a power of two (0 means 4). The heap
// region must fit below StackBase; a capacity that would overrun it (or wrap
// the 32-bit address space) panics immediately rather than letting later
// allocations alias the stack or wrap around to low addresses.
func NewAllocator(m *Memory, capacity uint32, align uint32) *Allocator {
	if align == 0 {
		align = 4
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
	}
	limit := uint64(HeapBase) + uint64(capacity)
	if limit > uint64(StackBase) {
		panic(fmt.Sprintf("mem: heap capacity %#x overruns the stack region (limit %#x > StackBase %#x); reduce the workload scale", capacity, limit, StackBase))
	}
	return &Allocator{mem: m, next: HeapBase, limit: uint32(limit), align: align}
}

// Alloc reserves size bytes and returns the address of the allocation.
// It panics if the heap region is exhausted (a programming error in a
// workload generator, not a runtime condition). The bounds check is done in
// 64-bit arithmetic: addr+size near the top of the address space must report
// exhaustion, not wrap past the limit and hand out aliased memory.
func (a *Allocator) Alloc(size uint32) uint32 {
	addr := (uint64(a.next) + uint64(a.align) - 1) &^ (uint64(a.align) - 1)
	if addr+uint64(size) > uint64(a.limit) {
		panic(fmt.Sprintf("mem: heap exhausted (next=%#x size=%d limit=%#x); reduce the workload scale", a.next, size, a.limit))
	}
	a.next = uint32(addr + uint64(size))
	return uint32(addr)
}

// Used reports how many bytes of heap have been consumed.
func (a *Allocator) Used() uint32 { return a.next - HeapBase }

// Mem returns the underlying memory.
func (a *Allocator) Mem() *Memory { return a.mem }
