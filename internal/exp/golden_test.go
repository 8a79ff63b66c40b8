package exp

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"ldsprefetch/internal/sim"
)

// The golden determinism guard: rendered reports for every registered
// experiment, fig1, and one dual-core mix are pinned byte-for-byte in
// testdata/, as is the set of cache keys the full run submits. Any hot-path optimization must
// keep these identical — if a change is intentionally behavior-altering,
// regenerate with
//
//	go test ./internal/exp -run TestGolden -update
//
// and justify the diff in the PR. Unlike the schema tests in trace_test.go
// (which pin keys, not values), these pin every simulated number that reaches
// a report, so they catch reordered floating-point folds, altered eviction
// ordering, and any other silent semantic drift.
var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// goldenCtx is shared across golden tests so the single-core grid is
// simulated once; the mix test only adds the shared/alone multi-core runs.
var (
	goldenOnce sync.Once
	goldenC    *Context
)

func goldenContext() *Context {
	goldenOnce.Do(func() { goldenC = testCtx() })
	return goldenC
}

// goldenAll runs every registered experiment once on its own context and
// keeps the rendered reports and the sorted distinct cache keys the run
// submitted. A private context keeps the key set independent of which other
// golden tests ran first.
var (
	goldenAllOnce sync.Once
	goldenAllText string
	goldenAllKeys string
)

func goldenAll(t *testing.T) (text, keys string) {
	t.Helper()
	goldenAllOnce.Do(func() {
		c := testCtx()
		reps, err := Run(c, "all")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range reps {
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
		seen := map[string]bool{}
		var ks []string
		for _, rec := range c.Jobs().Records() {
			if rec.Key != "" && !seen[rec.Key] {
				seen[rec.Key] = true
				ks = append(ks, rec.Key)
			}
		}
		sort.Strings(ks)
		goldenAllText, goldenAllKeys = sb.String(), strings.Join(ks, "\n")+"\n"
	})
	if goldenAllText == "" {
		t.Fatal("full golden run produced no output")
	}
	return goldenAllText, goldenAllKeys
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to generate): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; if intentional, re-run with -update and explain the diff.\n--- got ---\n%s--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenAll pins every report "experiments -exp all" renders.
func TestGoldenAll(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	text, _ := goldenAll(t)
	checkGolden(t, "golden_all.txt", text)
}

// TestGoldenAllKeys pins the cache keys the full run submits, so a renamed
// spec or reordered component list cannot silently cold a result store.
func TestGoldenAllKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	_, keys := goldenAll(t)
	checkGolden(t, "golden_all_keys.txt", keys)
}

func TestGoldenFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	r := Fig1(goldenContext())
	checkGolden(t, "golden_fig1.txt", r.String())
}

func TestGoldenMulticoreMix(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	r := multiReport(goldenContext(), "golden-mix",
		"Golden dual-core mix (determinism guard)",
		[][]string{{"mst", "health"}}, nil)
	checkGolden(t, "golden_multicore.txt", r.String())
}

// TestGoldenMulticoreMixParallel renders the same mix under the parallel
// engine and holds it to the SAME golden file: engine equivalence must reach
// all the way up to the rendered report, not just sim.MultiResult.
func TestGoldenMulticoreMixParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	if *updateGolden {
		t.Skip("golden is written by the serial variant")
	}
	ctx := testCtx()
	ctx.Engine = sim.EngineParallel
	r := multiReport(ctx, "golden-mix",
		"Golden dual-core mix (determinism guard)",
		[][]string{{"mst", "health"}}, nil)
	checkGolden(t, "golden_multicore.txt", r.String())
}
