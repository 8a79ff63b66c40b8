package jobs

import (
	"testing"

	"ldsprefetch/internal/core"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// TestGoldenKeys pins the exact SHA-256 cache keys of representative jobs
// under SchemaVersion 3. These hashes are the store's addressing scheme: if
// this test fails, previously cached results are unreachable (or, worse,
// reachable under a key that no longer means what it did). An intentional
// change — a component Version bump, a canonical-encoding change — must come
// with a SchemaVersion bump or a factory Version bump, an ORCHESTRATION.md
// note, and regenerated hashes here.
func TestGoldenKeys(t *testing.T) {
	p := workload.Params{Scale: 0.05, Seed: 7}
	h := core.NewHintTable()
	h.Set(0x40, core.HintVec{Pos: 3, Neg: 1})
	stream := sim.NewSpec("stream", "stream")
	ecdpt := sim.NewSpec("stream+ecdp+thr", "stream", "cdp", "throttle").WithHints(h)

	golden := []struct {
		name string
		key  func() (Key, error)
		want string
	}{
		{"single/stream", func() (Key, error) { return SingleSpecKey("mst", p, stream) },
			"c63514845729850065a10630c11c9e41c775d38471698e3bb3b148adc742a564"},
		{"single/ecdp+thr", func() (Key, error) { return SingleSpecKey("mst", p, ecdpt) },
			"bb4453e0c1e3217eaed93bae379f1815b742001d99e0c12e045004116eaed086"},
		{"shared/ecdp+thr", func() (Key, error) { return SharedSpecKey([]string{"mst", "health"}, p, ecdpt) },
			"ad68a338601fd6d367e67c3d12491992b1b80deb8da7fce5f4475f85430cbdda"},
		{"alone/ecdp+thr/2", func() (Key, error) { return AloneSpecKey("mst", p, ecdpt, 2) },
			"ff536a062d5a076554cfabce23666d542f29b3b1fb6ebb52486bacea45cfee25"},
		{"profile", func() (Key, error) { return profileKey("mst", p, simProfiler) },
			"8ff6c02023470817c2ce7b8498b120bd9792663ebc654af38c829bb2daa09b8b"},
	}
	for _, g := range golden {
		k, err := g.key()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if k.Hash != g.want {
			t.Errorf("%s: key drifted\n got %s\nwant %s\ncanonical payload: %s",
				g.name, k.Hash, g.want, k.canonical)
		}
	}
}
