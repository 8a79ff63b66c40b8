package exp

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"ldsprefetch/internal/jobs"
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
// submitted: those of the result kinds (single, shared, alone) and those of
// the profiles apart. A private context keeps the key sets independent of
// which other golden tests ran first. The run fills a result store in
// goldenAllStore, which TestEntriesNameTheirCells replays; TestMain removes
// it.
var (
	goldenAllOnce        sync.Once
	goldenAllText        string
	goldenAllKeys        string
	goldenAllProfileKeys string
	goldenAllStore       string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if goldenAllStore != "" {
		os.RemoveAll(goldenAllStore)
	}
	os.Exit(code)
}

// sortedKeys returns the distinct cache keys of the records keep selects, one
// per line in ascending order.
func sortedKeys(recs []jobs.Record, keep func(jobs.Record) bool) string {
	seen := map[string]bool{}
	var ks []string
	for _, rec := range recs {
		if rec.Key != "" && keep(rec) && !seen[rec.Key] {
			seen[rec.Key] = true
			ks = append(ks, rec.Key)
		}
	}
	sort.Strings(ks)
	return strings.Join(ks, "\n") + "\n"
}

func goldenAll(t *testing.T) (text, keys, profileKeys string) {
	t.Helper()
	goldenAllOnce.Do(func() {
		dir, err := os.MkdirTemp("", "exp-golden-store-")
		if err != nil {
			t.Fatal(err)
		}
		goldenAllStore = dir
		c := cachedCtx(dir)
		reps, err := Run(c, "all")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range reps {
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
		recs := c.Jobs().Records()
		isProfile := func(rec jobs.Record) bool { return rec.Kind == "profile" }
		goldenAllText = sb.String()
		goldenAllKeys = sortedKeys(recs, func(rec jobs.Record) bool { return !isProfile(rec) })
		goldenAllProfileKeys = sortedKeys(recs, isProfile)
	})
	if goldenAllText == "" {
		t.Fatal("full golden run produced no output")
	}
	return goldenAllText, goldenAllKeys, goldenAllProfileKeys
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
	text, _, _ := goldenAll(t)
	checkGolden(t, "golden_all.txt", text)
}

// TestEntriesNameTheirCells holds every generator to naming the Grid cells
// it reads. Each registry entry runs alone on a fresh context over the store
// the full run filled: it must render its part of golden_all.txt byte for
// byte and compute nothing. A generator that reads a cell it did not ask
// for sees that cell's zero value and renders something else.
func TestEntriesNameTheirCells(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	goldenAll(t)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, e := range Registry {
		c := cachedCtx(goldenAllStore)
		reps, err := Run(c, e.ID)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range reps {
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
		got := sb.String()
		if end := off + len(got); end > len(want) || string(want[off:end]) != got {
			t.Fatalf("%s alone does not render its part of golden_all.txt; does it name every cell it reads?\n--- got ---\n%s",
				e.ID, got)
		}
		off += len(got)
		if s := snapshot(c); s.CacheMisses != 0 || s.Computed != 0 || s.Uncached != 0 {
			t.Errorf("%s alone: misses=%d computed=%d uncached=%d, want all 0",
				e.ID, s.CacheMisses, s.Computed, s.Uncached)
		}
	}
	if off != len(want) {
		t.Errorf("the entries rendered %d bytes, golden_all.txt has %d", off, len(want))
	}
}

// TestGoldenAllKeys pins the result cache keys (kinds single, shared and
// alone) the full run submits, so a renamed spec or reordered component list
// cannot silently cold a result store.
func TestGoldenAllKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	_, keys, _ := goldenAll(t)
	checkGolden(t, "golden_all_keys.txt", keys)
}

// TestGoldenProfileKeys pins the profile cache keys the full run submits:
// the train-input profiles, sec6.1.6's self-input profiles and sec3impl's
// informing-loads profiles.
func TestGoldenProfileKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	_, _, keys := goldenAll(t)
	checkGolden(t, "golden_profile_keys.txt", keys)
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

// TestGoldenMulticoreMixParallel simulates the golden mix's cells under the
// parallel engine into a fresh store, then renders the mix report from that
// store on a fresh context and holds it to the SAME golden file: engine
// equivalence must reach all the way up to the rendered report, and the
// engine must not split cache keys (the render computes nothing).
func TestGoldenMulticoreMixParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	if *updateGolden {
		t.Skip("golden is written by the serial variant")
	}
	dir := t.TempDir()
	c := cachedCtx(dir)
	mix := []string{"mst", "health"}
	specs := mixSpecs(c.Hints(mix))
	fanOut(len(specs), func(j int) {
		sp := specs[j]
		sp.Engine = sim.EngineParallel
		if _, err := c.RunMix(mix, sp); err != nil {
			t.Error(err)
		}
	})
	checkGolden(t, "golden_multicore.txt", renderFromStore(t, dir, func(c *Context) Report {
		return multiReport(c, "golden-mix", "Golden dual-core mix (determinism guard)",
			[][]string{mix}, nil)
	}))
}
