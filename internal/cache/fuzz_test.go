package cache

import (
	"slices"
	"testing"
)

// way returns l's index within its set, or -1 for nil.
func way(c *Cache, addr uint32, l *Line) int {
	if l == nil {
		return -1
	}
	set := c.set(addr)
	for i := range set {
		if &set[i] == l {
			return i
		}
	}
	panic("line outside its set")
}

func clone(c *Cache) *Cache {
	d := *c
	d.sets = make([][]Line, len(c.sets))
	for i := range c.sets {
		d.sets[i] = slices.Clone(c.sets[i])
	}
	return &d
}

func lines(c *Cache) []Line {
	var ls []Line
	c.ForEach(func(l *Line) { ls = append(ls, *l) })
	return ls
}

// FuzzCacheProbe runs the same Lookup, Insert, Probe and Probe-then-Fill
// calls on a cache and on a twin driven by the two-scan reference
// (reference_test.go), on caches of 1–8 ways and 1–4 sets. After every call
// both must have returned the same way, the same displaced copy and the same
// Evictions, and ForEach must list the same lines in the same order. A
// missing Probe must name the way the reference Insert replaces: the last
// invalid way, or else the least recently used one. Run it with
//
//	go test -run '^$' -fuzz FuzzCacheProbe -fuzztime 20s ./internal/cache
func FuzzCacheProbe(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{0, 1, 1, 2, 2, 3, 3, 4, 0, 5, 1, 6, 2, 7, 3, 1})
	f.Add(uint8(7), uint8(0), []byte{3, 0, 3, 8, 3, 16, 0, 8, 2, 24, 3, 32, 1, 0, 3, 40})
	f.Add(uint8(0), uint8(2), []byte{2, 0, 2, 4, 0, 0, 3, 4, 3, 8})
	f.Fuzz(func(t *testing.T, waysRaw, setsRaw uint8, ops []byte) {
		ways := int(waysRaw%8) + 1
		nsets := 1 << (setsRaw % 3)
		c := New("c", nsets*ways*64, ways, 64)
		r := New("r", nsets*ways*64, ways, 64)
		for n := 0; n+1 < len(ops); n += 2 {
			op, a := ops[n], ops[n+1]
			// Few distinct blocks per set, so sets fill and evict.
			addr := uint32(a%32)<<6 | uint32(a>>5)
			touch := op&4 != 0
			var got, want *Line
			var gotEv, wantEv Line
			var gotHad, wantHad bool
			switch op % 4 {
			case 0:
				got, want = c.Lookup(addr, touch), refLookup(r, addr, touch)
			case 1:
				got, gotEv, gotHad = c.Insert(addr)
				want, wantEv, wantHad = refInsert(r, addr)
			case 2:
				l, hit := c.Probe(addr, touch)
				if hit {
					got, want = l, refLookup(r, addr, touch)
					break
				}
				// A miss names the victim without changing the cache:
				// the way the reference Insert fills in a copy of r.
				if refLookup(r, addr, false) != nil {
					t.Fatalf("op %d: Probe(%#x) missed, reference hit", n/2, addr)
				}
				twin := clone(r)
				v, _, _ := refInsert(twin, addr)
				if g, w := way(c, addr, l), way(twin, addr, v); g != w {
					t.Fatalf("op %d: Probe(%#x) victim way %d, reference %d", n/2, addr, g, w)
				}
			case 3:
				l, hit := c.Probe(addr, touch)
				got = l
				if !hit {
					gotEv, gotHad = c.Fill(l, addr)
					want, wantEv, wantHad = refInsert(r, addr)
				} else {
					want = refLookup(r, addr, touch)
				}
			}
			if g, w := way(c, addr, got), way(r, addr, want); g != w {
				t.Fatalf("op %d (%d on %#x): way %d, reference %d", n/2, op%4, addr, g, w)
			}
			if got != nil {
				// Metadata the displaced copies must carry along.
				got.ReadyAt, want.ReadyAt = int64(n), int64(n)
				got.Dirty, want.Dirty = op&8 != 0, op&8 != 0
			}
			if gotEv != wantEv || gotHad != wantHad {
				t.Fatalf("op %d: evicted %+v %v, reference %+v %v", n/2, gotEv, gotHad, wantEv, wantHad)
			}
			if c.Evictions != r.Evictions {
				t.Fatalf("op %d: %d evictions, reference %d", n/2, c.Evictions, r.Evictions)
			}
			if g, w := lines(c), lines(r); !slices.Equal(g, w) {
				t.Fatalf("op %d: lines\n%+v\nreference\n%+v", n/2, g, w)
			}
		}
	})
}
