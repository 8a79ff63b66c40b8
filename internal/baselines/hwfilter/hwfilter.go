// Package hwfilter implements the hardware prefetch-pollution filter
// baseline (Zhuang & Lee, ICPP 2003) compared against in paper Section 6.4:
// a table of one-bit entries indexed by a hash of the block address. A
// prefetched block that is evicted unused sets its bit, suppressing the next
// prefetch of that block; a useful prefetch clears it. The paper uses an
// 8 KB filter and finds it too aggressive — it kills many useful CDP
// prefetches — which is the behaviour reproduced here.
package hwfilter

import "ldsprefetch/internal/prefetch"

// tableBits is the paper's 8 KB filter, one bit per entry.
const tableBits = 8 << 10 * 8

// Filter is a Zhuang-Lee style history-based prefetch filter.
type Filter struct {
	bits       [tableBits / 64]uint64
	blockShift uint
}

// New builds a filter for blocks of 1<<blockShift bytes.
func New(blockShift uint) *Filter {
	return &Filter{blockShift: blockShift}
}

func (f *Filter) idx(blockAddr uint32) (int, uint64) {
	h := (blockAddr >> f.blockShift) * 2654435761 // Knuth multiplicative hash
	h &= tableBits - 1
	return int(h / 64), 1 << (h % 64)
}

// Allow reports whether a prefetch of addr should be issued, implementing
// the memsys FilterPrefetch gate.
func (f *Filter) Allow(r prefetch.Request) bool {
	w, b := f.idx(r.Addr)
	return f.bits[w]&b == 0
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
