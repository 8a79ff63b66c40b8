package stream

import (
	"slices"
	"testing"

	"ldsprefetch/internal/memsys"
	"ldsprefetch/internal/prefetch"
)

// streamOp is one call on a stream table: an access, a SetLevel or a
// SetEnabled.
type streamOp struct {
	kind  uint8 // opAccess, opLevel or opEnable
	ev    memsys.AccessEvent
	level prefetch.AggLevel
	on    bool
}

const (
	opAccess = iota
	opLevel
	opEnable
)

func (o streamOp) apply(p interface {
	OnAccess(memsys.AccessEvent)
	SetLevel(prefetch.AggLevel)
	SetEnabled(bool)
}) {
	switch o.kind {
	case opAccess:
		p.OnAccess(o.ev)
	case opLevel:
		p.SetLevel(o.level)
	case opEnable:
		p.SetEnabled(o.on)
	}
}

// streamOps decodes data into stream-table calls, four bytes per call.
// Accesses come from four clusters of blocks, each with a cursor that moves
// a few blocks per access (so streams form in both directions) or jumps to a
// fresh region (so allocations outrun the 32 entries and replace the LRU
// one). Blocks stay below 2^26, so no two are 2^31 apart (see near).
func streamOps(data []byte) []streamOp {
	var ops []streamOp
	var cursor [4]uint32
	for k := range cursor {
		cursor[k] = uint32(k) << 20
	}
	now := int64(0)
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, flags := data[0], data[1], data[2], data[3]
		switch op % 16 {
		case 0:
			ops = append(ops, streamOp{kind: opLevel, level: prefetch.AggLevel(a%6) - 1})
			continue
		case 1:
			ops = append(ops, streamOp{kind: opEnable, on: a&1 == 1})
			continue
		}
		k := a % 4
		if op%16 == 2 {
			cursor[k] += uint32(b)*3 + 2*trainWindow
		} else {
			cursor[k] += uint32(int32(int8(b)) % 5)
		}
		now += int64(flags >> 4)
		ops = append(ops, streamOp{kind: opAccess, ev: memsys.AccessEvent{
			Now:      now,
			Addr:     cursor[k]<<6 | uint32(b&63),
			IsLoad:   true,
			L1Hit:    flags&7 == 0,
			L2Hit:    flags&3 == 1,
			InFlight: flags&12 == 4,
		}})
	}
	return ops
}

// FuzzStreamTable drives the bitmask table and the scan-based reference
// model (reference_test.go) with the same events and level and enable
// changes, and requires the same prefetch requests in the same order and the
// same per-entry state, direction, blocks and recency after every step. Run
// it with
//
//	go test -run '^$' -fuzz FuzzStreamTable -fuzztime 20s ./internal/stream
func FuzzStreamTable(f *testing.F) {
	ascending := []byte{}
	for i := 0; i < 40; i++ {
		ascending = append(ascending, 3, 0, 1, 0x12)
	}
	f.Add(ascending)
	f.Add([]byte{3, 1, 0xff, 0x12, 3, 1, 0xff, 0x12, 3, 1, 0xff, 0x12, 0, 1, 0, 0, 3, 1, 0xff, 0x12, 1, 0, 0, 0, 3, 1, 0xff, 0x12})
	// Misses exactly trainWindow blocks apart, in both directions, with L1
	// hits (which train nothing) in between.
	var edge []byte
	for _, b := range []byte{4, 0xfc} {
		edge = append(edge, 3, 1, b, 2, 3, 1, b, 0, 3, 1, b, 0, 3, 1, b, 0, 3, 1, b, 2)
	}
	f.Add(edge)
	// A stream that trains upward, turns, and confirms downward.
	f.Add([]byte{3, 1, 0, 0x12, 3, 1, 2, 0x12, 3, 1, 0xfc, 0x12, 3, 1, 0xfe, 0x12, 3, 1, 0xff, 0x12})
	var churn []byte
	for i := 0; i < 80; i++ {
		churn = append(churn, 2, byte(i), byte(i*7), 0x12, 3, byte(i), 1, 0x12)
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want sink
		p := New(6, &got)
		r := newRef(6, &want)
		for n, op := range streamOps(data) {
			op.apply(p)
			op.apply(r)
			if !slices.Equal(got.reqs, want.reqs) {
				t.Fatalf("step %d: requests differ:\n got %v\nwant %v", n, got.reqs, want.reqs)
			}
			checkTable(t, n, p, r)
		}
	})
}

func checkTable(t *testing.T, n int, p *Prefetcher, r *refPrefetcher) {
	t.Helper()
	for i, w := range r.entries {
		e := p.entries[i]
		// ref is firstBlk until the stream monitors and lastDemand from
		// then on; lastDemand equals firstBlk before. A monitoring stream
		// never reads firstBlk again, so the table does not keep it.
		g := refEntry{state: e.state, dir: e.dir, firstBlk: p.ref[i],
			lastDemand: p.ref[i], nextPf: e.nextPf, lru: p.lru[i]}
		if w.state == monitoring {
			g.firstBlk = w.firstBlk
		}
		if g != w {
			t.Fatalf("step %d: entry %d = %+v, want %+v", n, i, g, w)
		}
		for s := invalid; s < numStates; s++ {
			if in := p.in[s]>>i&1 == 1; in != (e.state == s) {
				t.Fatalf("step %d: entry %d in state %d, but mask %d has bit %v", n, i, e.state, s, in)
			}
		}
	}
}
