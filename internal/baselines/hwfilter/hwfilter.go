// Package hwfilter implements the hardware prefetch-pollution filter
// baseline (Zhuang & Lee, ICPP 2003) compared against in paper Section 6.4:
// a table of one-bit entries indexed by a hash of the block address. A
// prefetched block that is evicted unused sets its bit, suppressing the next
// prefetch of that block; a useful prefetch clears it. The paper uses an
// 8 KB filter and finds it too aggressive — it kills many useful CDP
// prefetches — which is the behaviour reproduced here.
package hwfilter

import "ldsprefetch/internal/prefetch"

// Filter is a Zhuang-Lee style history-based prefetch filter.
type Filter struct {
	bits       []uint64
	mask       uint32
	blockShift uint

	// Filtered counts suppressed prefetches; Passed counts admitted ones.
	Filtered, Passed int64
}

// New builds a filter with the given table size in bits (power of two;
// the paper's 8 KB filter is 65536 bits).
func New(tableBits int, blockShift uint) *Filter {
	if tableBits <= 0 {
		tableBits = 8 << 10 * 8
	}
	if tableBits&(tableBits-1) != 0 {
		panic("hwfilter: table size must be a power of two")
	}
	return &Filter{
		bits:       make([]uint64, tableBits/64),
		mask:       uint32(tableBits - 1),
		blockShift: blockShift,
	}
}

func (f *Filter) idx(blockAddr uint32) (int, uint64) {
	h := (blockAddr >> f.blockShift) * 2654435761 // Knuth multiplicative hash
	h &= f.mask
	return int(h / 64), 1 << (h % 64)
}

// Allow reports whether a prefetch of addr should be issued, implementing
// the memsys FilterPrefetch gate.
func (f *Filter) Allow(r prefetch.Request) bool {
	w, b := f.idx(r.Addr)
	if f.bits[w]&b != 0 {
		f.Filtered++
		return false
	}
	f.Passed++
	return true
}

// Outcome records a resolved prefetch of blockAddr (a memsys PrefetchUsed
// or PrefetchUseless event): useless evictions set the suppress bit, useful
// prefetches clear it.
func (f *Filter) Outcome(blockAddr uint32, used bool) {
	w, b := f.idx(blockAddr)
	if used {
		f.bits[w] &^= b
	} else {
		f.bits[w] |= b
	}
}

// SizeBits returns the filter's storage cost in bits.
func (f *Filter) SizeBits() int { return len(f.bits) * 64 }
