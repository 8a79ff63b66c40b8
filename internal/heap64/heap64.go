// Package heap64 provides a binary min-heap of int64 values with no
// interface boxing.
//
// The simulator's hot path maintains several completion-time heaps (L2 MSHR
// fills, prefetch-queue fills, DRAM request-buffer occupancy) that push and
// pop an int64 timestamp per simulated access. container/heap moves elements
// through interface{} values, which forces a heap allocation per Push on
// int64 — profiling showed those boxes were the large majority of all
// allocations in a simulation run. This package is the drop-in replacement:
// the same min-heap ordering over a plain []int64, allocation-free after the
// backing array reaches its high-water mark.
//
// Replacing container/heap with this package is behavior-preserving: the only
// observable outputs of a min-heap of plain int64s are its length, its
// minimum, and the (multiset-sorted) sequence of popped values, and those are
// identical for every valid binary-heap arrangement — equal values are
// indistinguishable.
package heap64

// Heap is a binary min-heap of int64 values: h[0] is the minimum of a
// non-empty heap. The zero value is an empty heap ready to use.
type Heap []int64

// Len returns the number of values in the heap.
func (h Heap) Len() int { return len(h) }

// Push adds v to the heap.
func (h *Heap) Push(v int64) {
	s := append(*h, v)
	// Sift up.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
	*h = s
}

// Pop removes and returns the smallest value. It panics on an empty heap.
func (h *Heap) Pop() int64 {
	s := *h
	min := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && s[r] < s[l] {
			small = r
		}
		if s[i] <= s[small] {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return min
}

// CountGreater returns the number of values strictly greater than t, without
// modifying the heap (a full O(n) scan; use PopLE-maintained gauges where the
// query times are monotone).
func (h Heap) CountGreater(t int64) int {
	n := 0
	for _, v := range h {
		if v > t {
			n++
		}
	}
	return n
}

// PopLE removes every value less than or equal to t. With monotone t across
// calls, each value is pushed and popped exactly once, so a sequence of PopLE
// calls costs O(log n) amortized per value rather than O(n) per query.
func (h *Heap) PopLE(t int64) {
	for len(*h) > 0 && (*h)[0] <= t {
		h.Pop()
	}
}
