// Package prefetch defines the types shared by all prefetchers and the
// memory system: prefetch request descriptors, prefetcher identities,
// aggressiveness levels (paper Table 2), and the run-time feedback counters
// (accuracy, coverage, lateness) with the interval-based
// exponential smoothing of the paper's Equation 3.
package prefetch

import "fmt"

// Source identifies who generated a memory request.
type Source uint8

const (
	// SrcDemand is a demand (program) request, not a prefetch.
	SrcDemand Source = iota
	// SrcStream is the POWER4-style stream prefetcher.
	SrcStream
	// SrcCDP is the content-directed prefetcher (original or ECDP).
	SrcCDP
	// SrcMarkov is the Markov correlation prefetcher baseline.
	SrcMarkov
	// SrcGHB is the global-history-buffer delta-correlation baseline.
	SrcGHB
	// SrcDBP is the dependence-based prefetcher baseline.
	SrcDBP
	// NumSources is the number of distinct request sources.
	NumSources
)

func (s Source) String() string {
	switch s {
	case SrcDemand:
		return "demand"
	case SrcStream:
		return "stream"
	case SrcCDP:
		return "cdp"
	case SrcMarkov:
		return "markov"
	case SrcGHB:
		return "ghb"
	case SrcDBP:
		return "dbp"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// IsPrefetch reports whether s is a prefetcher (not demand).
func (s Source) IsPrefetch() bool { return s != SrcDemand && s < NumSources }

// PGKey packs a pointer-group identity — (static load PC, word offset from
// the accessed byte) — into one integer for cheap storage in cache-line
// metadata. Offset is in words and may be negative.
type PGKey uint64

// MakePGKey builds a PGKey from a load PC and a word offset in
// [-16, +15] (64-byte blocks, 4-byte words).
func MakePGKey(pc uint32, wordOff int) PGKey {
	return PGKey(uint64(pc)<<16 | uint64(uint16(int16(wordOff))))
}

// PC returns the static load PC of the pointer group.
func (k PGKey) PC() uint32 { return uint32(k >> 16) }

// WordOff returns the word offset of the pointer group relative to the byte
// the load accessed (negative offsets allowed).
func (k PGKey) WordOff() int { return int(int16(uint16(k))) }

func (k PGKey) String() string {
	return fmt.Sprintf("PG(pc=%#x,off=%+d)", k.PC(), k.WordOff()*4)
}

// Request is a prefetch request presented to the memory system.
type Request struct {
	// When is the cycle the request is generated.
	When int64
	// Addr is the target address (the memory system aligns it to a block).
	Addr uint32
	// Src identifies the issuing prefetcher.
	Src Source
	// Depth is the CDP recursion depth of the block being fetched
	// (1 for prefetches triggered by a demand-miss fill).
	Depth uint8
	// PG is the root pointer group this prefetch is attributed to
	// (CDP only; zero otherwise). Recursive prefetches inherit the root PG,
	// matching the paper's definition of "a PG's prefetches".
	PG PGKey
}

// Issuer accepts prefetch requests from a prefetcher. The memory system
// implements it.
type Issuer interface {
	Issue(r Request)
}

// AggLevel is a prefetcher aggressiveness level (paper Table 2).
type AggLevel int

const (
	// VeryConservative is the lowest aggressiveness level.
	VeryConservative AggLevel = iota
	// Conservative is the second aggressiveness level.
	Conservative
	// Moderate is the third aggressiveness level.
	Moderate
	// Aggressive is the highest aggressiveness level (the baseline
	// configuration of both prefetchers).
	Aggressive
)

func (l AggLevel) String() string {
	switch l {
	case VeryConservative:
		return "very-conservative"
	case Conservative:
		return "conservative"
	case Moderate:
		return "moderate"
	case Aggressive:
		return "aggressive"
	default:
		return fmt.Sprintf("AggLevel(%d)", int(l))
	}
}

// Clamp bounds l to the valid range.
func (l AggLevel) Clamp() AggLevel {
	if l < VeryConservative {
		return VeryConservative
	}
	if l > Aggressive {
		return Aggressive
	}
	return l
}

// StreamParams returns the stream prefetcher (distance, degree) for an
// aggressiveness level, per paper Table 2.
func StreamParams(l AggLevel) (distance, degree int) {
	switch l.Clamp() {
	case VeryConservative:
		return 4, 1
	case Conservative:
		return 8, 1
	case Moderate:
		return 16, 2
	default:
		return 32, 4
	}
}

// CDPDepth returns the CDP maximum recursion depth for an aggressiveness
// level, per paper Table 2.
func CDPDepth(l AggLevel) int { return int(l.Clamp()) + 1 }

// Throttleable is implemented by prefetchers whose aggressiveness can be
// adjusted at run time.
type Throttleable interface {
	// Level returns the current aggressiveness level.
	Level() AggLevel
	// SetLevel sets the aggressiveness level (values are clamped).
	SetLevel(l AggLevel)
}
