package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// TestManifestRecordsJobs checks that a run with -cache records the cache
// summary and per-job provenance in the manifest it writes into each of the
// -trace and -out directories, as the experiments command does.
func TestManifestRecordsJobs(t *testing.T) {
	ctx := exp.NewContext()
	ctx.Params = workload.Params{Scale: 0.05, Seed: 1}
	ctx.CacheDir = t.TempDir()
	ctx.TraceDir = t.TempDir()
	setup, err := sim.Named("stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RunOne("mst", setup); err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	persist(ctx, outDir, "stream", []string{"mst"}, nil, "summary\n")
	for _, dir := range []string{ctx.TraceDir, outDir} {
		b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Cache *exp.CacheSummary `json:"cache"`
			Jobs  []struct {
				Provenance string `json:"provenance"`
			} `json:"jobs"`
		}
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		// A traced run bypasses the cache, so its one job is "uncached".
		if m.Cache == nil || m.Cache.Dir != ctx.CacheDir || m.Cache.Uncached != 1 {
			t.Errorf("%s: cache summary = %+v, want dir %s and one uncached job", dir, m.Cache, ctx.CacheDir)
		}
		if len(m.Jobs) != 1 || m.Jobs[0].Provenance != "uncached" {
			t.Errorf("%s: jobs = %+v, want one uncached record", dir, m.Jobs)
		}
	}
}
