package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/trace"
	"ldsprefetch/internal/workload"
)

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postSweep(t *testing.T, ts *httptest.Server, req sweepRequest) sweepStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) sweepStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st sweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s still %s after 2m: %+v", id, st.State, st)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func fetchText(t *testing.T, ts *httptest.Server, path string, wantCode int) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d (want %d): %s", path, resp.StatusCode, wantCode, b)
	}
	return string(b)
}

// metricValue extracts one un-labelled sample from a Prometheus text body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("parsing %s: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s absent from:\n%s", name, body)
	return 0
}

// TestExperimentSweepE2E is the job-service acceptance test: submit fig1
// over HTTP, poll to completion, fetch the report, scrape /metrics, then
// resubmit and observe a fully cached second pass.
func TestExperimentSweepE2E(t *testing.T) {
	ts := newTestServer(t, Options{CacheDir: t.TempDir()})

	st := postSweep(t, ts, sweepRequest{Experiment: "fig1", Scale: 0.05, Seed: 5})
	if st.ID == "" || st.Kind != "experiment" {
		t.Fatalf("submit returned %+v", st)
	}
	st = waitDone(t, ts, st.ID)
	if len(st.FailedJobs) > 0 {
		t.Fatalf("sweep failed jobs: %v", st.FailedJobs)
	}
	if st.Jobs.Computed == 0 {
		t.Fatalf("first sweep computed nothing: %+v", st.Jobs)
	}
	if st.Reports == 0 {
		t.Fatal("sweep produced no reports")
	}

	text := fetchText(t, ts, "/api/v1/sweeps/"+st.ID+"/report?format=text", http.StatusOK)
	if !strings.Contains(text, "fig1") {
		t.Fatalf("report does not mention the experiment:\n%s", text)
	}
	jsonBody := fetchText(t, ts, "/api/v1/sweeps/"+st.ID+"/report", http.StatusOK)
	var raw []json.RawMessage
	if err := json.Unmarshal([]byte(jsonBody), &raw); err != nil || len(raw) == 0 {
		t.Fatalf("JSON report malformed (%v):\n%s", err, jsonBody)
	}

	metrics := fetchText(t, ts, "/metrics", http.StatusOK)
	if v := metricValue(t, metrics, "ldsjobs_cache_misses_total"); v == 0 {
		t.Fatal("metrics report zero cache misses after a cold sweep")
	}
	if v := metricValue(t, metrics, "ldsjobs_job_duration_seconds_count"); v == 0 {
		t.Fatal("latency histogram empty after a sweep")
	}
	if v := metricValue(t, metrics, "ldsjobs_workers_capacity"); v != 4 {
		t.Fatalf("workers_capacity = %v, want 4", v)
	}

	// Identical resubmission: everything from the cache, reports identical.
	st2 := postSweep(t, ts, sweepRequest{Experiment: "fig1", Scale: 0.05, Seed: 5})
	st2 = waitDone(t, ts, st2.ID)
	if st2.Jobs.Computed != 0 {
		t.Fatalf("resubmitted sweep executed %d simulations, want 0", st2.Jobs.Computed)
	}
	if st2.Jobs.CacheHits == 0 {
		t.Fatalf("resubmitted sweep had no cache hits: %+v", st2.Jobs)
	}
	text2 := fetchText(t, ts, "/api/v1/sweeps/"+st2.ID+"/report?format=text", http.StatusOK)
	if text != text2 {
		t.Fatalf("cached report differs from computed one:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}

	metrics = fetchText(t, ts, "/metrics", http.StatusOK)
	if v := metricValue(t, metrics, "ldsjobs_cache_hits_total"); v == 0 {
		t.Fatal("metrics report zero cache hits after a cached sweep")
	}
}

// TestMetricsSumSweeps checks that /metrics reports the sum of the jobs
// counts of every sweep GET /api/v1/sweeps lists: each sweep's scheduler
// counts its own jobs and the service adds them up. The second sweep is
// served mostly from the store the first one filled.
func TestMetricsSumSweeps(t *testing.T) {
	ts := newTestServer(t, Options{CacheDir: t.TempDir()})
	for _, configs := range [][]string{{"none", "stream"}, {"none", "stream", "cdp"}} {
		st := postSweep(t, ts, sweepRequest{Benchmarks: []string{"mst"}, Configs: configs, Scale: 0.05, Seed: 5})
		if st = waitDone(t, ts, st.ID); len(st.FailedJobs) > 0 {
			t.Fatalf("sweep %s failed jobs: %v", st.ID, st.FailedJobs)
		}
	}
	var all []sweepStatus
	if err := json.Unmarshal([]byte(fetchText(t, ts, "/api/v1/sweeps", http.StatusOK)), &all); err != nil || len(all) != 2 {
		t.Fatalf("list: %v, %d sweeps", err, len(all))
	}
	if all[1].Jobs.CacheHits == 0 {
		t.Fatalf("second sweep had no cache hits: %+v", all[1].Jobs)
	}
	var sum jobCounts
	for _, st := range all {
		j := st.Jobs
		sum.Submitted += j.Submitted
		sum.Completed += j.Completed
		sum.Failed += j.Failed
		sum.Queued += j.Queued
		sum.Running += j.Running
		sum.CacheHits += j.CacheHits
		sum.CacheMisses += j.CacheMisses
		sum.Computed += j.Computed
		sum.Uncached += j.Uncached
		sum.Coalesced += j.Coalesced
	}
	metrics := fetchText(t, ts, "/metrics", http.StatusOK)
	for _, m := range []struct {
		name string
		want int64
	}{
		{"ldsjobs_jobs_submitted_total", sum.Submitted},
		{"ldsjobs_jobs_completed_total", sum.Completed},
		{"ldsjobs_jobs_failed_total", sum.Failed},
		{"ldsjobs_queue_depth", sum.Queued},
		{"ldsjobs_workers_busy", sum.Running},
		{"ldsjobs_cache_hits_total", sum.CacheHits},
		{"ldsjobs_cache_misses_total", sum.CacheMisses},
		{"ldsjobs_cache_computed_total", sum.Computed},
		{"ldsjobs_cache_uncached_total", sum.Uncached},
		{"ldsjobs_jobs_coalesced_total", sum.Coalesced},
		// Every execution ends computed, uncached or failed, and none failed.
		{"ldsjobs_job_duration_seconds_count", sum.Computed + sum.Uncached},
	} {
		if got := metricValue(t, metrics, m.name); got != float64(m.want) {
			t.Errorf("%s = %v, want the sweeps' sum %d", m.name, got, m.want)
		}
	}
}

// registerPanicBench registers panicBench, a workload whose build panics,
// once per test binary.
var registerPanicBench sync.Once

const panicBench = "panic-bench"

// TestRawSweepContainsPanic: a cell that panics inside a job is reported as
// a failed cell while the rest of the sweep completes and the process
// survives.
func TestRawSweepContainsPanic(t *testing.T) {
	registerPanicBench.Do(func() {
		err := workload.Register(workload.Generator{Name: panicBench, Server: true,
			Description: "test workload whose build panics",
			Build:       func(workload.Params) *trace.Trace { panic("panic-bench: build") }})
		if err != nil {
			t.Fatal(err)
		}
	})
	ts := newTestServer(t, Options{})

	st := postSweep(t, ts, sweepRequest{
		Benchmarks: []string{panicBench, "mst"},
		Specs:      []sim.Spec{sim.NewSpec("ok", "stream")},
		Scale:      0.05,
		Seed:       5,
	})
	if st.Kind != "raw" {
		t.Fatalf("submit returned %+v", st)
	}
	st = waitDone(t, ts, st.ID)
	if st.Jobs.Failed != 1 {
		t.Fatalf("failed=%d, want exactly the panicking cell: %+v", st.Jobs.Failed, st.Jobs)
	}
	if len(st.FailedJobs) != 1 || !strings.Contains(st.FailedJobs[0], "panicked") {
		t.Fatalf("panic not surfaced in failed_jobs: %v", st.FailedJobs)
	}

	text := fetchText(t, ts, "/api/v1/sweeps/"+st.ID+"/report?format=text", http.StatusOK)
	rows := map[string]string{} // bench -> status column
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			rows[f[0]] = f[len(f)-1]
		}
	}
	if rows[panicBench] != "FAILED" {
		t.Fatalf("report does not flag the failed cell:\n%s", text)
	}
	if rows["mst"] != "ok" {
		t.Fatalf("healthy cell missing from report:\n%s", text)
	}

	metrics := fetchText(t, ts, "/metrics", http.StatusOK)
	if v := metricValue(t, metrics, "ldsjobs_jobs_panics_total"); v != 1 {
		t.Fatalf("panics_total = %v, want 1", v)
	}
}

func TestRawSweepNamedConfigs(t *testing.T) {
	ts := newTestServer(t, Options{})
	st := postSweep(t, ts, sweepRequest{
		Benchmarks: []string{"mst"},
		Configs:    []string{"none", "stream"},
		Scale:      0.05,
		Seed:       5,
	})
	st = waitDone(t, ts, st.ID)
	if len(st.FailedJobs) > 0 {
		t.Fatalf("failed jobs: %v", st.FailedJobs)
	}
	text := fetchText(t, ts, "/api/v1/sweeps/"+st.ID+"/report?format=text", http.StatusOK)
	for _, want := range []string{"none", "stream", "ok"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
	}{
		{"unknown experiment", `{"experiment":"nosuch"}`},
		{"unknown benchmark", `{"benchmarks":["nosuch"],"configs":["stream"]}`},
		{"unknown config", `{"benchmarks":["mst"],"configs":["warp-drive"]}`},
		{"both modes", `{"experiment":"fig1","benchmarks":["mst"],"configs":["stream"]}`},
		{"negative scale", `{"experiment":"fig1","scale":-1}`},
		{"no cells", `{"benchmarks":["mst"]}`},
		{"unknown field", `{"experiment":"fig1","turbo":true}`},
		{"empty", `{}`},
		{"oversized cpu_cfg", `{"benchmarks":["mst"],"specs":[{"name":"big","components":[{"kind":"stream"}],"cpu_cfg":{"Window":17592186044416,"Width":4}}]}`},
		{"oversized mem_cfg", `{"benchmarks":["mst"],"specs":[{"name":"big","mem_cfg":{"BlockSize":64,"L1Size":32768,"L1Ways":4,"L2Size":1099511627776,"L2Ways":8}}]}`},
		{"unsupported block_size", `{"benchmarks":["mst"],"specs":[{"name":"big","components":[{"kind":"stream"}],"block_size":4096}]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, b)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: malformed error body %s", tc.name, b)
		}
	}
}

// TestRawSweepSpecs drives the declarative path end-to-end: a sweep
// submitted as sim.Spec JSON documents runs through the component-table assembler
// and reports per-cell results.
func TestRawSweepSpecs(t *testing.T) {
	ts := newTestServer(t, Options{})
	st := postSweep(t, ts, sweepRequest{
		Benchmarks: []string{"mst"},
		Specs: []sim.Spec{
			sim.NewSpec("stream-only", "stream"),
			sim.NewSpec("hybrid", "stream", "cdp", "throttle"),
		},
		Scale: 0.05,
		Seed:  5,
	})
	if st.Kind != "raw" {
		t.Fatalf("submit returned %+v", st)
	}
	st = waitDone(t, ts, st.ID)
	if len(st.FailedJobs) > 0 {
		t.Fatalf("failed jobs: %v", st.FailedJobs)
	}
	text := fetchText(t, ts, "/api/v1/sweeps/"+st.ID+"/report?format=text", http.StatusOK)
	for _, want := range []string{"stream-only", "hybrid", "ok"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

// TestSubmitSpecValidation asserts invalid specs are rejected at submit with
// 400 and an actionable message — unknown kinds list the component catalog,
// composition conflicts name the fighting components — and that the removed
// setups field is refused as an unknown field.
func TestSubmitSpecValidation(t *testing.T) {
	ts := newTestServer(t, Options{})
	cases := []struct {
		name, body, wantMsg string
	}{
		{"unknown component",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"warp-drive"}]}]}`,
			"known components"},
		{"throttle+fdp conflict",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"},{"kind":"throttle"},{"kind":"fdp"}]}]}`,
			"claim prefetcher aggressiveness control"},
		{"removed hwfilter option",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"},{"kind":"cdp"},{"kind":"hwfilter","options":{"bits":-8}}]}]}`,
			`unknown field "bits"`},
		{"pab without switchable pair",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"},{"kind":"pab"}]}]}`,
			"switchable"},
		{"hints without consumer",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"}],"hints":[{"pc":16,"pos":1,"neg":0}]}]}`,
			"no component consumes them"},
		{"misspelled option",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream","options":{"streems":4}}]}]}`,
			"streems"},
		{"unknown core model",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"}],"core":{"kind":"quantum"}}]}`,
			"known core models"},
		{"bad core options",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"}],"core":{"kind":"ooo","options":{"predictor":"psychic"}}}]}`,
			"predictor"},
		{"removed core option",
			`{"benchmarks":["mst"],"specs":[{"name":"x","components":[{"kind":"stream"}],"core":{"kind":"ooo","options":{"wrong_path_depth":1000000000}}}]}`,
			"wrong_path_depth"},
		{"setups is rejected",
			`{"benchmarks":["mst"],"setups":[{"Name":"x","Stream":true,"Throttle":true,"FDP":true}]}`,
			`unknown field "setups"`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, b)
		}
		var e map[string]string
		if err := json.Unmarshal(b, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: malformed error body %s", tc.name, b)
		}
		if !strings.Contains(e["error"], tc.wantMsg) {
			t.Fatalf("%s: error %q does not contain %q", tc.name, e["error"], tc.wantMsg)
		}
	}
}

// TestGracefulDrain verifies the SIGTERM path's server half: Drain stops new
// submissions with 503, blocks until in-flight sweeps finish, and leaves the
// status/report endpoints (and the already-accepted sweep's results) intact.
func TestGracefulDrain(t *testing.T) {
	srv, err := New(Options{Workers: 4, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	st := postSweep(t, ts, sweepRequest{
		Benchmarks: []string{"mst"}, Configs: []string{"none"}, Scale: 0.05, Seed: 5})

	done := make(chan struct{})
	go func() {
		srv.Drain()
		close(done)
	}()

	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("Drain did not return within 2m")
	}
	// Drain returning means the accepted sweep ran to completion.
	got := fetchText(t, ts, "/api/v1/sweeps/"+st.ID, http.StatusOK)
	var after sweepStatus
	if err := json.Unmarshal([]byte(got), &after); err != nil {
		t.Fatal(err)
	}
	if after.State != "done" {
		t.Fatalf("sweep state after Drain = %q, want done", after.State)
	}
	// Reports survive the drain.
	text := fetchText(t, ts, "/api/v1/sweeps/"+st.ID+"/report?format=text", http.StatusOK)
	if !strings.Contains(text, "mst") {
		t.Fatalf("post-drain report missing results:\n%s", text)
	}
	// Journal was flushed: the store holds the sweep's completion record.
	journal := fetchText(t, ts, "/metrics", http.StatusOK)
	if v := metricValue(t, journal, "ldsjobs_jobs_completed_total"); v == 0 {
		t.Fatal("no jobs recorded as completed after drain")
	}

	// New submissions are refused with 503.
	body, _ := json.Marshal(sweepRequest{
		Benchmarks: []string{"mst"}, Configs: []string{"none"}, Scale: 0.05, Seed: 5})
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503 (%s)", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "draining") {
		t.Fatalf("503 body does not explain the drain: %s", b)
	}
}

func TestLookupAndListEndpoints(t *testing.T) {
	ts := newTestServer(t, Options{})
	fetchText(t, ts, "/api/v1/sweeps/s999", http.StatusNotFound)
	fetchText(t, ts, "/api/v1/sweeps/s999/report", http.StatusNotFound)
	fetchText(t, ts, "/healthz", http.StatusOK)

	st := postSweep(t, ts, sweepRequest{
		Benchmarks: []string{"mst"}, Configs: []string{"none"}, Scale: 0.05, Seed: 5})
	waitDone(t, ts, st.ID)
	list := fetchText(t, ts, "/api/v1/sweeps", http.StatusOK)
	var all []sweepStatus
	if err := json.Unmarshal([]byte(list), &all); err != nil || len(all) != 1 {
		t.Fatalf("list: %v %s", err, list)
	}
	if all[0].ID != st.ID {
		t.Fatalf("list returned %+v, want sweep %s", all[0], st.ID)
	}
	sweeps := fetchText(t, ts, "/metrics", http.StatusOK)
	if !strings.Contains(sweeps, fmt.Sprintf("ldsserve_sweeps{state=%q} 1", "done")) {
		t.Fatalf("sweep state gauge missing:\n%s", sweeps)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden report files")

// TestGoldenRawSweep pins the raw sweep report byte for byte: named configs
// with and without profiled hints, plus an unnamed and a named spec, over
// two benchmarks. Regenerate with
//
//	go test ./internal/server -run TestGoldenRawSweep -update
//
// and justify the diff.
func TestGoldenRawSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("golden simulation runs are slow")
	}
	ts := newTestServer(t, Options{})
	st := postSweep(t, ts, sweepRequest{
		Benchmarks: []string{"mst", "health"},
		Configs:    []string{"none", "cdp", "ecdp+throttle"},
		Specs: []sim.Spec{
			sim.NewSpec("", "stream", "cdp", "throttle"),
			sim.NewSpec("stream-only", "stream"),
		},
		Scale: 0.05,
		Seed:  5,
	})
	st = waitDone(t, ts, st.ID)
	if len(st.FailedJobs) > 0 {
		t.Fatalf("failed jobs: %v", st.FailedJobs)
	}
	got := fetchText(t, ts, "/api/v1/sweeps/"+st.ID+"/report?format=text", http.StatusOK)
	path := filepath.Join("testdata", "golden_raw.txt")
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
		t.Errorf("raw sweep report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
