package core

import "fmt"

// HardwareCost itemizes the storage cost of the proposal, reproducing paper
// Table 7. All quantities are in bits.
type HardwareCost struct {
	// PrefetchedBits is the per-L2-block prefetched-bit storage
	// (one bit per prefetcher per block).
	PrefetchedBits int
	// CounterBits is the feedback counter storage for coordinated
	// throttling.
	CounterBits int
	// MSHRHintBits is the per-MSHR storage recording the missing load's
	// block offset and hint bit vector.
	MSHRHintBits int
}

// PaperCost returns the storage breakdown of the configuration costed in
// paper Table 7.
func PaperCost() HardwareCost {
	const (
		l2Blocks    = 8192 // L2 cache blocks (1 MB of 128 B lines)
		prefetchers = 2    // prefetchers with a per-block prefetched bit
		counters    = 11   // feedback counters
		counterBits = 16   // bits per counter
		mshrs       = 32   // MSHR entries
		offsetBits  = 7    // block-offset bits per MSHR entry
		hintBits    = 16   // hint-vector bits per MSHR entry
	)
	return HardwareCost{
		PrefetchedBits: l2Blocks * prefetchers,
		CounterBits:    counters * counterBits,
		MSHRHintBits:   mshrs * (offsetBits + hintBits),
	}
}

// TotalBits returns the total storage in bits.
func (h HardwareCost) TotalBits() int {
	return h.PrefetchedBits + h.CounterBits + h.MSHRHintBits
}

// TotalKB returns the total storage in kilobytes (1024-byte KB, as the
// paper reports 17296 bits = 2.11 KB).
func (h HardwareCost) TotalKB() float64 {
	return float64(h.TotalBits()) / 8 / 1024
}

// AreaOverheadPercent returns the overhead as a fraction of an L2 cache of
// l2Bytes data storage, in percent (paper: 0.206% of a 1 MB L2).
func (h HardwareCost) AreaOverheadPercent(l2Bytes int) float64 {
	return h.TotalKB() / (float64(l2Bytes) / 1024) * 100
}

func (h HardwareCost) String() string {
	return fmt.Sprintf("prefetched bits %d + counters %d + MSHR hints %d = %d bits (%.2f KB)",
		h.PrefetchedBits, h.CounterBits, h.MSHRHintBits, h.TotalBits(), h.TotalKB())
}
