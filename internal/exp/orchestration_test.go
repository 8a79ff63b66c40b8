package exp

import (
	"strings"
	"testing"

	"ldsprefetch/internal/jobs"
)

// cachedCtx is testCtx wired to a result cache.
func cachedCtx(dir string) *Context {
	c := testCtx()
	c.CacheDir = dir
	return c
}

// renderAll runs the experiments on one fresh context and returns the
// concatenated rendered reports plus the context.
func renderAll(t *testing.T, dir string, ids ...string) (string, *Context) {
	t.Helper()
	c := cachedCtx(dir)
	var sb strings.Builder
	for _, id := range ids {
		reps, err := Run(c, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reps {
			out, err := r.Render("text")
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString(out)
			sb.WriteByte('\n')
		}
	}
	if errs := c.JobErrs(); len(errs) > 0 {
		t.Fatalf("job failures: %v", errs)
	}
	return sb.String(), c
}

// snapshot returns c's scheduler counters.
func snapshot(c *Context) jobs.Snapshot { return c.Jobs().Metrics().Snapshot() }

// everyCell is a benchmark's whole grid: the seven shared configurations
// and the train-input profile.
var everyCell = []Cell{NoPF, Base, CDP, CDPT, ECDP, ECDPT, Ideal, Prof}

// TestFig1SimulatesOnlyItsCells: fig1 reads the NoPF, Base and Ideal cells,
// so on a fresh scheduler it submits exactly three single jobs per
// pointer-intensive benchmark and no profiling pass.
func TestFig1SimulatesOnlyItsCells(t *testing.T) {
	c := testCtx()
	if _, err := Run(c, "fig1"); err != nil {
		t.Fatal(err)
	}
	keys := map[string]map[string]bool{}
	for _, rec := range c.Jobs().Records() {
		switch rec.Kind {
		case "profile":
			t.Errorf("fig1 ran a profiling pass for %v", rec.Benchmarks)
		case "single":
			b := rec.Benchmarks[0]
			if keys[b] == nil {
				keys[b] = map[string]bool{}
			}
			keys[b][rec.Key] = true
		default:
			t.Errorf("fig1 ran a %s job", rec.Kind)
		}
	}
	for _, b := range pointerBenches() {
		if len(keys[b]) != 3 {
			t.Errorf("%s: %d single keys, want 3", b, len(keys[b]))
		}
	}
	if len(keys) != len(pointerBenches()) {
		t.Errorf("fig1 ran %d benchmarks, want %d", len(keys), len(pointerBenches()))
	}
}

// TestExperimentCachedRerun is the cache-correctness acceptance test: an
// identical re-run against the same store renders byte-identical reports
// without executing a single cacheable simulation.
func TestExperimentCachedRerun(t *testing.T) {
	dir := t.TempDir()

	first, c1 := renderAll(t, dir, "fig1")
	s1 := snapshot(c1)
	if s1.Computed == 0 {
		t.Fatalf("first pass computed nothing: %+v", s1)
	}
	if s1.CacheHits != 0 {
		t.Fatalf("first pass against an empty store reported %d hits", s1.CacheHits)
	}

	second, c2 := renderAll(t, dir, "fig1")
	s2 := snapshot(c2)
	if first != second {
		t.Fatalf("cached re-run is not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if s2.Computed != 0 {
		t.Fatalf("second pass executed %d simulations, want 0 (all from cache)", s2.Computed)
	}
	if s2.CacheHits != s1.Computed {
		t.Fatalf("second pass hits=%d, want every first-pass computation (%d)", s2.CacheHits, s1.Computed)
	}
}

// TestExperimentCacheInvalidation: changing the measurement input must not
// reuse stale cells. The train-input profiles do not depend on it, so they
// are the only hits. It runs sec6.7, which reads ECDPT and so profiles.
func TestExperimentCacheInvalidation(t *testing.T) {
	dir := t.TempDir()
	_, c1 := renderAll(t, dir, "sec67")
	s1 := snapshot(c1)

	c := cachedCtx(dir)
	c.Params.Seed++ // different measurement input → every result key changes
	if _, err := Run(c, "sec67"); err != nil {
		t.Fatal(err)
	}
	var profiles int64
	for _, rec := range c.Jobs().Records() {
		want := "computed"
		if rec.Kind == "profile" {
			want = "hit"
			profiles++
		}
		if rec.Provenance != want {
			t.Errorf("changed seed: %s job %v/%s is %q, want %q",
				rec.Kind, rec.Benchmarks, rec.Setup, rec.Provenance, want)
		}
	}
	if profiles == 0 {
		t.Fatal("sec67 ran no profile jobs")
	}
	s2 := snapshot(c)
	if s2.CacheHits != profiles {
		t.Fatalf("changed seed hit the cache %d times, want only the %d profiles", s2.CacheHits, profiles)
	}
	if s2.Computed != s1.Computed-profiles {
		t.Fatalf("changed seed computed %d cells, want %d", s2.Computed, s1.Computed-profiles)
	}
}

// TestProfileCachedRerun: all three profiling passes — train input (the
// ECDPT cell of sec616 and sec3impl), self input (sec616) and informing
// loads (sec3impl) — are served from the
// store on a re-run, which renders byte-identical reports without executing
// anything.
func TestProfileCachedRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments twice")
	}
	dir := t.TempDir()
	ids := []string{"fig1", "sec616", "sec3impl"}
	first, c1 := renderAll(t, dir, ids...)
	setups := map[string]bool{}
	for _, rec := range c1.Jobs().Records() {
		if rec.Kind == "profile" && rec.Provenance == "computed" {
			setups[rec.Setup] = true
		}
	}
	if !setups["profile"] || !setups["profile-informing"] {
		t.Fatalf("cold run computed profiles %v, want both profilers", setups)
	}

	second, c2 := renderAll(t, dir, ids...)
	if first != second {
		t.Fatalf("cached re-run is not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	for _, rec := range c2.Jobs().Records() {
		if rec.Provenance == "computed" || rec.Provenance == "uncached" {
			t.Errorf("warm run executed %s job %v/%s (%s)", rec.Kind, rec.Benchmarks, rec.Setup, rec.Provenance)
		}
	}
	if s := snapshot(c2); s.Computed != 0 || s.Uncached != 0 || s.CacheMisses != 0 {
		t.Fatalf("warm run counters %+v, want no misses or executions", s)
	}
}

// TestGridResume is the resume acceptance test: after an interrupted sweep
// completed one benchmark's grid, resuming the two-benchmark sweep executes
// exactly the remaining cells.
func TestGridResume(t *testing.T) {
	dir := t.TempDir()

	// "Interrupted" sweep: one grid of seven configurations completed.
	c1 := cachedCtx(dir)
	c1.Grid("mst", everyCell...)
	// Seven cells plus the train-input profile.
	s1 := snapshot(c1)
	if s1.Computed != 8 {
		t.Fatalf("partial sweep computed %d jobs, want 8", s1.Computed)
	}

	// Resume with a wider sweep: only the new benchmark's cells execute.
	c2 := cachedCtx(dir)
	c2.Grid("mst", everyCell...)
	c2.Grid("health", everyCell...)
	s2 := snapshot(c2)
	if s2.CacheHits != 8 {
		t.Fatalf("resume re-used %d jobs, want 8", s2.CacheHits)
	}
	if s2.Computed != 8 {
		t.Fatalf("resume executed %d jobs, want exactly the 8 remaining", s2.Computed)
	}
	if errs := c2.JobErrs(); len(errs) > 0 {
		t.Fatalf("job failures: %v", errs)
	}
}

// TestManifestAttachJobs: the PR-1 manifest carries cache provenance.
func TestManifestAttachJobs(t *testing.T) {
	dir := t.TempDir()
	c := cachedCtx(dir)
	c.Grid("mst", everyCell...)

	m := NewManifest("test", c.Params.Scale, c.Params.Seed, c.Parallel)
	m.AttachJobs(dir, c.Jobs())
	if m.Cache == nil || m.Cache.Dir != dir {
		t.Fatalf("manifest cache summary missing: %+v", m.Cache)
	}
	// Seven cells plus the train-input profile.
	if m.Cache.Computed != 8 {
		t.Fatalf("manifest computed=%d, want 8", m.Cache.Computed)
	}
	if len(m.Jobs) == 0 {
		t.Fatal("manifest carries no per-job provenance records")
	}
	var computed int
	for _, rec := range m.Jobs {
		if rec.Provenance == "computed" {
			computed++
			if rec.Key == "" {
				t.Fatalf("computed record without a cache key: %+v", rec)
			}
		}
	}
	if computed != 8 {
		t.Fatalf("manifest records %d computed jobs, want 8", computed)
	}
}
