package heap64

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

func TestPushPopSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Heap
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = rng.Int63n(100) // plenty of duplicates
		h.Push(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, want := range vals {
		if h[0] != want {
			t.Fatalf("pop %d: min = %d, want %d", i, h[0], want)
		}
		if got := h.Pop(); got != want {
			t.Fatalf("pop %d: got %d, want %d", i, got, want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("len = %d after draining", h.Len())
	}
}

// boxedHeap is the container/heap implementation this package replaces; the
// reference for the equivalence test below.
type boxedHeap []int64

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestMatchesContainerHeap drives both implementations with the same random
// mixed push/pop sequence and asserts every observable output (lengths, mins,
// popped values) matches — the property that makes the swap in memsys/dram
// behavior-preserving.
func TestMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Heap
	var ref boxedHeap
	for op := 0; op < 20000; op++ {
		if ref.Len() == 0 || rng.Intn(3) != 0 {
			v := rng.Int63n(50)
			h.Push(v)
			heap.Push(&ref, v)
		} else {
			got, want := h.Pop(), heap.Pop(&ref).(int64)
			if got != want {
				t.Fatalf("op %d: pop %d, reference popped %d", op, got, want)
			}
		}
		if h.Len() != ref.Len() {
			t.Fatalf("op %d: len %d, reference %d", op, h.Len(), ref.Len())
		}
		if h.Len() > 0 && h[0] != ref[0] {
			t.Fatalf("op %d: min %d, reference %d", op, h[0], ref[0])
		}
	}
}

func TestCountGreaterAndPopLE(t *testing.T) {
	var h Heap
	for _, v := range []int64{5, 1, 9, 3, 7, 3} {
		h.Push(v)
	}
	if got := h.CountGreater(3); got != 3 {
		t.Fatalf("CountGreater(3) = %d, want 3", got)
	}
	if got := h.CountGreater(0); got != 6 {
		t.Fatalf("CountGreater(0) = %d, want 6", got)
	}
	h.PopLE(3)
	if h.Len() != 3 || h[0] != 5 {
		t.Fatalf("after PopLE(3): len=%d min=%d, want 3 entries starting at 5", h.Len(), h[0])
	}
	h.PopLE(100)
	if h.Len() != 0 {
		t.Fatalf("after PopLE(100): len=%d, want empty", h.Len())
	}
	h.PopLE(0) // no-op on empty heap
}

func TestPushIsAllocationFree(t *testing.T) {
	var h Heap
	for i := 0; i < 1024; i++ {
		h.Push(int64(i)) // reach the high-water mark
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.Push(1)
		h.Pop()
	})
	if allocs != 0 {
		t.Fatalf("push/pop allocates %v times per op, want 0", allocs)
	}
}
