package cpu

import "fmt"

// predictor is a conditional branch direction predictor. The core calls
// predict then update back-to-back for each branch in program order (the
// resolved direction is known from the trace), so implementations may carry
// provider state from predict to the immediately following update.
type predictor interface {
	// predict returns the predicted direction for the branch at pc.
	predict(pc uint32) bool
	// update trains the predictor with the resolved direction.
	update(pc uint32, taken bool)
}

// Predictor kind names accepted by OoOOptions.Predictor.
const (
	PredBimodal = "bimodal"
	PredTAGE    = "tage"
)

// newPredictor builds the named predictor ("" is bimodal).
func newPredictor(kind string) (predictor, error) {
	switch kind {
	case "", PredBimodal:
		return newBimodal(bimodalBits), nil
	case PredTAGE:
		return newTAGE(), nil
	default:
		return nil, fmt.Errorf("unknown predictor %q (known: %s, %s)",
			kind, PredBimodal, PredTAGE)
	}
}

// bimodalBits sizes the bimodal table at 2^12 = 4096 two-bit counters.
const bimodalBits = 12

// bimodal is a PC-indexed table of saturating two-bit counters, initialized
// weakly taken (loop back-edges, the dominant branch class in LDS traversal
// code, start out predicted correctly).
type bimodal struct {
	ctr  []uint8
	mask uint32
}

func newBimodal(bits int) *bimodal {
	b := &bimodal{ctr: make([]uint8, 1<<bits), mask: 1<<bits - 1}
	for i := range b.ctr {
		b.ctr[i] = 2
	}
	return b
}

func (b *bimodal) index(pc uint32) uint32 { return (pc >> 2) & b.mask }

func (b *bimodal) predict(pc uint32) bool { return b.ctr[b.index(pc)] >= 2 }

func (b *bimodal) update(pc uint32, taken bool) {
	i := b.index(pc)
	if taken {
		if b.ctr[i] < 3 {
			b.ctr[i]++
		}
	} else if b.ctr[i] > 0 {
		b.ctr[i]--
	}
}

// tage is a small TAGE variant: a bimodal base predictor plus four
// partially-tagged tables indexed by geometrically increasing global history
// lengths (8/16/32/64 bits). The longest matching table provides the
// prediction; on a misprediction an entry is allocated in a longer table
// whose useful counter is free. History is capped at 64 bits so the folded
// index/tag hashes read a single word.
type tage struct {
	base   *bimodal
	tables [4]tageTable
	hist   uint64

	// provider state carried from predict to the following update.
	provIdx  int // table index of the provider, -1 for base
	provSlot uint32
	provPred bool
	altPred  bool
}

type tageTable struct {
	histLen int
	tags    []uint16
	ctr     []int8 // 3-bit signed: taken if >= 0
	u       []uint8
	mask    uint32
}

const (
	tageIdxBits = 10 // 1024 entries per tagged table
	tageTagBits = 8
)

func newTAGE() *tage {
	t := &tage{base: newBimodal(bimodalBits), provIdx: -1}
	for i, hl := range [4]int{8, 16, 32, 64} {
		t.tables[i] = tageTable{
			histLen: hl,
			tags:    make([]uint16, 1<<tageIdxBits),
			ctr:     make([]int8, 1<<tageIdxBits),
			u:       make([]uint8, 1<<tageIdxBits),
			mask:    1<<tageIdxBits - 1,
		}
	}
	return t
}

// fold XORs the low histLen bits of h together into a bits-wide value.
func fold(h uint64, histLen, bits int) uint32 {
	h &= 1<<uint(histLen) - 1
	var f uint64
	for h != 0 {
		f ^= h & (1<<uint(bits) - 1)
		h >>= uint(bits)
	}
	return uint32(f)
}

func (t *tage) slot(i int, pc uint32) uint32 {
	tb := &t.tables[i]
	return ((pc >> 2) ^ (pc >> uint(2+tageIdxBits-i)) ^
		fold(t.hist, tb.histLen, tageIdxBits)) & tb.mask
}

// storedTag computes the table-i tag for pc with bit 8 set, so a stored
// value of zero always means an empty entry.
func (t *tage) storedTag(i int, pc uint32) uint16 {
	tb := &t.tables[i]
	v := (pc >> 2) ^ fold(t.hist, tb.histLen, tageTagBits) ^
		fold(t.hist, tb.histLen, tageTagBits-1)<<1
	return uint16(v&(1<<tageTagBits-1)) | 1<<tageTagBits
}

func (t *tage) predict(pc uint32) bool {
	t.provIdx = -1
	t.altPred = t.base.predict(pc)
	pred := t.altPred
	for i := len(t.tables) - 1; i >= 0; i-- {
		s := t.slot(i, pc)
		if t.tables[i].tags[s] == t.storedTag(i, pc) {
			if t.provIdx < 0 {
				t.provIdx = i
				t.provSlot = s
				pred = t.tables[i].ctr[s] >= 0
			} else {
				// First shorter match below the provider is the alternate.
				t.altPred = t.tables[i].ctr[s] >= 0
				break
			}
		}
	}
	t.provPred = pred
	return pred
}

func (t *tage) update(pc uint32, taken bool) {
	mispred := t.provPred != taken
	if t.provIdx >= 0 {
		tb := &t.tables[t.provIdx]
		s := t.provSlot
		if taken {
			if tb.ctr[s] < 3 {
				tb.ctr[s]++
			}
		} else if tb.ctr[s] > -4 {
			tb.ctr[s]--
		}
		// The useful counter tracks predictions where the provider beat
		// (or lost to) its alternate.
		if t.provPred != t.altPred {
			if t.provPred == taken {
				if tb.u[s] < 3 {
					tb.u[s]++
				}
			} else if tb.u[s] > 0 {
				tb.u[s]--
			}
		}
	} else {
		t.base.update(pc, taken)
	}
	// On a misprediction, allocate in the shortest longer table with a free
	// useful counter; if none is free, age them all (classic TAGE).
	if mispred && t.provIdx < len(t.tables)-1 {
		allocated := false
		for i := t.provIdx + 1; i < len(t.tables); i++ {
			tb := &t.tables[i]
			s := t.slot(i, pc)
			if tb.u[s] == 0 {
				tb.tags[s] = t.storedTag(i, pc)
				if taken {
					tb.ctr[s] = 0 // weakly taken
				} else {
					tb.ctr[s] = -1 // weakly not-taken
				}
				allocated = true
				break
			}
		}
		if !allocated {
			for i := t.provIdx + 1; i < len(t.tables); i++ {
				tb := &t.tables[i]
				s := t.slot(i, pc)
				if tb.u[s] > 0 {
					tb.u[s]--
				}
			}
		}
	}
	bit := uint64(0)
	if taken {
		bit = 1
	}
	t.hist = t.hist<<1 | bit
}
