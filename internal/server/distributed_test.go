package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/sim"
)

// newCoordServer is newTestServer for coordinator mode, also returning the
// *Server so tests can Drain it.
func newCoordServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.Coordinator = true
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// startWorker runs a pull worker until test cleanup cancels it.
func startWorker(t *testing.T, opts WorkerOptions) *Worker {
	t.Helper()
	if opts.Poll == 0 {
		opts.Poll = 10 * time.Millisecond
	}
	if opts.Backoff == 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	w, err := NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker %s: %v", opts.ID, err)
		}
	})
	return w
}

// fetchWorkers decodes GET /api/v1/workers.
func fetchWorkers(t *testing.T, ts *httptest.Server) map[string]workerSnapshot {
	t.Helper()
	body := fetchText(t, ts, "/api/v1/workers", http.StatusOK)
	var list []workerSnapshot
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("decoding workers (%v):\n%s", err, body)
	}
	out := make(map[string]workerSnapshot, len(list))
	for _, ws := range list {
		out[ws.ID] = ws
	}
	return out
}

// TestDistributedMatchesLocal is the distributed acceptance test: the same
// sweeps — a raw spec sweep with a hint-profiled ECDP config and the fig1
// experiment — run on a plain in-process server and on a coordinator backed
// by two pull workers, and the reports must match byte for byte. A
// resubmission then runs against the workers' shared result store with
// verify mode on, cross-checking cache hits against recomputation.
func TestDistributedMatchesLocal(t *testing.T) {
	raw := sweepRequest{
		Benchmarks: []string{"mst", "health"},
		Configs:    []string{"none", "ecdp+throttle"},
		Scale:      0.05, Seed: 5,
	}
	fig := sweepRequest{Experiment: "fig1", Scale: 0.05, Seed: 5}

	local := newTestServer(t, Options{})
	stL := postSweep(t, local, raw)
	stL = waitDone(t, local, stL.ID)
	if len(stL.FailedJobs) > 0 {
		t.Fatalf("local raw sweep failed: %v", stL.FailedJobs)
	}
	wantRaw := fetchText(t, local, "/api/v1/sweeps/"+stL.ID+"/report?format=text", http.StatusOK)
	stF := postSweep(t, local, fig)
	stF = waitDone(t, local, stF.ID)
	wantFig := fetchText(t, local, "/api/v1/sweeps/"+stF.ID+"/report?format=text", http.StatusOK)

	_, coord := newCoordServer(t, Options{LeaseTTL: 10 * time.Second})
	shared := t.TempDir()
	wA := startWorker(t, WorkerOptions{Coordinator: coord.URL, ID: "wA",
		CacheDir: shared, Verify: true, Workers: 1, Batch: 1})
	wB := startWorker(t, WorkerOptions{Coordinator: coord.URL, ID: "wB",
		CacheDir: shared, Verify: true, Workers: 1, Batch: 1})

	stD := postSweep(t, coord, raw)
	stD = waitDone(t, coord, stD.ID)
	if len(stD.FailedJobs) > 0 {
		t.Fatalf("distributed raw sweep failed: %v", stD.FailedJobs)
	}
	if stD.Jobs.Dispatched == 0 {
		t.Fatalf("coordinator dispatched nothing: %+v", stD.Jobs)
	}
	// Hint profiles run on the coordinator, one per benchmark; every
	// simulation dispatches.
	if want := int64(len(raw.Benchmarks)); stD.Jobs.Computed != want {
		t.Fatalf("coordinator computed %d jobs in-process, want only the %d hint profiles",
			stD.Jobs.Computed, want)
	}
	gotRaw := fetchText(t, coord, "/api/v1/sweeps/"+stD.ID+"/report?format=text", http.StatusOK)
	if gotRaw != wantRaw {
		t.Fatalf("distributed raw report differs from local:\n--- local ---\n%s\n--- distributed ---\n%s", wantRaw, gotRaw)
	}

	stDF := postSweep(t, coord, fig)
	stDF = waitDone(t, coord, stDF.ID)
	if len(stDF.FailedJobs) > 0 {
		t.Fatalf("distributed fig1 failed: %v", stDF.FailedJobs)
	}
	gotFig := fetchText(t, coord, "/api/v1/sweeps/"+stDF.ID+"/report?format=text", http.StatusOK)
	if gotFig != wantFig {
		t.Fatalf("distributed fig1 report differs from local:\n--- local ---\n%s\n--- distributed ---\n%s", wantFig, gotFig)
	}

	// The work must actually have been split: with serial single-task
	// batches, neither worker can have absorbed the whole sweep while the
	// other polled every 10ms.
	workers := fetchWorkers(t, coord)
	for _, id := range []string{"wA", "wB"} {
		if workers[id].TasksCompleted == 0 {
			t.Fatalf("worker %s completed no tasks; sweep was not split: %+v", id, workers)
		}
	}

	// Resubmission: the coordinator (storeless) re-dispatches everything;
	// the workers serve their shared store, verify mode re-executing every
	// hit — the cross-node determinism check.
	stR := postSweep(t, coord, raw)
	stR = waitDone(t, coord, stR.ID)
	if len(stR.FailedJobs) > 0 {
		t.Fatalf("resubmitted distributed sweep failed (verify mismatch?): %v", stR.FailedJobs)
	}
	gotRaw2 := fetchText(t, coord, "/api/v1/sweeps/"+stR.ID+"/report?format=text", http.StatusOK)
	if gotRaw2 != wantRaw {
		t.Fatalf("cached distributed report differs from local:\n%s", gotRaw2)
	}
	mA, mB := wA.Scheduler().Metrics().Snapshot(), wB.Scheduler().Metrics().Snapshot()
	if mA.CacheHits+mB.CacheHits == 0 {
		t.Fatalf("no worker cache hits on resubmission: wA=%+v wB=%+v", mA, mB)
	}
	if mA.VerifyRuns+mB.VerifyRuns == 0 {
		t.Fatal("verify mode ran no determinism checks on worker cache hits")
	}
	if mA.VerifyBad+mB.VerifyBad != 0 {
		t.Fatalf("cross-node verify found mismatches: wA=%d wB=%d", mA.VerifyBad, mB.VerifyBad)
	}
}

// TestRedispatchOnWorkerLoss kills a worker mid-batch: a raw-HTTP "worker"
// leases tasks and goes silent, the lease expires, and a live worker picks
// up the re-dispatched tasks. The sweep must complete with a report
// byte-identical to a single-node run.
func TestRedispatchOnWorkerLoss(t *testing.T) {
	raw := sweepRequest{
		Benchmarks: []string{"mst", "health"},
		Configs:    []string{"none", "stream"},
		Scale:      0.05, Seed: 5,
	}
	local := newTestServer(t, Options{})
	stL := postSweep(t, local, raw)
	stL = waitDone(t, local, stL.ID)
	want := fetchText(t, local, "/api/v1/sweeps/"+stL.ID+"/report?format=text", http.StatusOK)

	_, coord := newCoordServer(t, Options{LeaseTTL: 300 * time.Millisecond})
	st := postSweep(t, coord, raw)

	// The doomed worker leases two tasks and is never heard from again.
	leaseBody, _ := json.Marshal(leaseRequest{Worker: "w-dead", Max: 2})
	deadline := time.Now().Add(10 * time.Second)
	var doomed leaseGrant
	for {
		resp, err := http.Post(coord.URL+"/api/v1/work/leases", "application/json", bytes.NewReader(leaseBody))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(b, &doomed); err != nil {
				t.Fatal(err)
			}
			break
		}
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("doomed lease: status %d: %s", resp.StatusCode, b)
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never queued tasks for the doomed worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(doomed.Tasks) == 0 {
		t.Fatal("doomed worker got an empty grant")
	}

	// A live worker joins; the doomed lease expires after 300ms and its
	// tasks are re-dispatched to the live one.
	startWorker(t, WorkerOptions{Coordinator: coord.URL, ID: "w-live", Workers: 2, Batch: 2})
	st = waitDone(t, coord, st.ID)
	if len(st.FailedJobs) > 0 {
		t.Fatalf("sweep failed after worker loss: %v", st.FailedJobs)
	}
	got := fetchText(t, coord, "/api/v1/sweeps/"+st.ID+"/report?format=text", http.StatusOK)
	if got != want {
		t.Fatalf("report after re-dispatch differs from single-node run:\n--- local ---\n%s\n--- distributed ---\n%s", want, got)
	}

	metrics := fetchText(t, coord, "/metrics", http.StatusOK)
	if v := metricValue(t, metrics, "ldsdist_tasks_redispatched_total"); v < float64(len(doomed.Tasks)) {
		t.Fatalf("redispatched_total = %v, want >= %d", v, len(doomed.Tasks))
	}
	workers := fetchWorkers(t, coord)
	if workers["w-dead"].LeasesExpired != 1 {
		t.Fatalf("doomed worker's lease not expired: %+v", workers["w-dead"])
	}
	if workers["w-live"].TasksCompleted == 0 {
		t.Fatalf("live worker completed nothing: %+v", workers["w-live"])
	}
}

// TestCoordinatorDrain: draining a coordinator lets the in-flight
// distributed sweep finish (workers keep leasing queued tasks and pushing
// results), then idle workers get 503 and new sweeps are refused.
func TestCoordinatorDrain(t *testing.T) {
	srv, coord := newCoordServer(t, Options{LeaseTTL: 10 * time.Second})
	startWorker(t, WorkerOptions{Coordinator: coord.URL, ID: "w1", Workers: 2, Batch: 2})

	st := postSweep(t, coord, sweepRequest{
		Benchmarks: []string{"mst"},
		Configs:    []string{"none", "stream"},
		Scale:      0.05, Seed: 5,
	})
	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()

	st = waitDone(t, coord, st.ID)
	if len(st.FailedJobs) > 0 {
		t.Fatalf("sweep failed during drain: %v", st.FailedJobs)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return after the in-flight sweep finished")
	}

	// The board is closed: a lease poll now gets 503, not 204.
	body, _ := json.Marshal(leaseRequest{Worker: "w2", Max: 1})
	resp, err := http.Post(coord.URL+"/api/v1/work/leases", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lease poll after drain: status %d, want 503", resp.StatusCode)
	}
	// And new sweeps are refused.
	sb, _ := json.Marshal(sweepRequest{Benchmarks: []string{"mst"}, Configs: []string{"none"}})
	resp, err = http.Post(coord.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(sb))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: status %d, want 503", resp.StatusCode)
	}
}

// TestWorkerReleasesLeaseOnCancel drives a Worker against a scripted
// coordinator: the worker leases a three-task batch, its context is
// cancelled while the first result is being pushed, and the worker must
// release the lease (so unfinished tasks re-dispatch immediately) instead
// of executing the rest or leaking the lease until its TTL.
func TestWorkerReleasesLeaseOnCancel(t *testing.T) {
	spec, err := sim.Named("none", nil)
	if err != nil {
		t.Fatal(err)
	}
	task := jobs.TaskSpec{Kind: "single", Benches: []string{"mst"}, Scale: 0.05, Seed: 5, Spec: spec}

	ctx, cancel := context.WithCancel(context.Background())
	var leased, pushed, released atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/work/leases", func(w http.ResponseWriter, r *http.Request) {
		if leased.Add(1) > 1 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, leaseGrant{
			Lease: "l1", TTLms: 60_000,
			Tasks: []leasedTask{
				{ID: "t1", Task: task}, {ID: "t2", Task: task}, {ID: "t3", Task: task},
			},
		})
	})
	mux.HandleFunc("POST /api/v1/work/leases/{id}/heartbeat", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]int64{"ttl_ms": 60_000})
	})
	mux.HandleFunc("POST /api/v1/work/leases/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		pushed.Add(1)
		// Cancel the worker while this push is in flight, and hold the
		// response long enough that the feed loop observes the
		// cancellation before the executor frees up for the next task.
		cancel()
		time.Sleep(100 * time.Millisecond)
		writeJSON(w, http.StatusOK, map[string]string{"status": pushAccepted})
	})
	mux.HandleFunc("POST /api/v1/work/leases/{id}/release", func(w http.ResponseWriter, _ *http.Request) {
		released.Add(1)
		writeJSON(w, http.StatusOK, map[string]int{"requeued": 2})
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	w, err := NewWorker(WorkerOptions{
		Coordinator: stub.URL, ID: "w1", Workers: 1, Batch: 3,
		Poll: 10 * time.Millisecond, Backoff: 10 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker exited with error: %v", err)
	}
	if released.Load() != 1 {
		t.Fatalf("release called %d times, want 1", released.Load())
	}
	if got := pushed.Load(); got != 1 {
		t.Fatalf("%d results pushed, want 1 (the in-flight task only)", got)
	}
}

// TestWorkEndpointsWithoutCoordinator: the work protocol on a plain server
// answers 404 with an actionable hint.
func TestWorkEndpointsWithoutCoordinator(t *testing.T) {
	ts := newTestServer(t, Options{})
	body, _ := json.Marshal(leaseRequest{Worker: "w1"})
	resp, err := http.Post(ts.URL+"/api/v1/work/leases", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !bytes.Contains(b, []byte("-coordinator")) {
		t.Fatalf("work endpoint on plain server: status %d body %s, want 404 with a -coordinator hint", resp.StatusCode, b)
	}
}
