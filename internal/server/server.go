// Package server exposes the job orchestrator over HTTP: submit an
// experiment or a raw spec sweep, poll job/sweep status, fetch reports in
// the standard JSON encoding, and scrape Prometheus-style metrics. Every
// sweep runs on its own jobs.Scheduler; all schedulers share one global
// worker pool, one content-addressed result store, and one metrics sink, so
// concurrent sweeps obey a single concurrency bound and reuse each other's
// journaled results. The API is documented in ORCHESTRATION.md.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ldsprefetch/internal/exp"
	"ldsprefetch/internal/jobs"
	"ldsprefetch/internal/sim"
	"ldsprefetch/internal/workload"
)

// Options configures a Server.
type Options struct {
	// CacheDir, when non-empty, backs every sweep with the content-
	// addressed result store rooted there.
	CacheDir string
	// Workers bounds concurrent simulations across all sweeps (default:
	// runtime.NumCPU via jobs.New).
	Workers int
	// Verify re-executes cache hits as a determinism check.
	Verify bool
	// JobTimeout bounds one simulation (0 = unbounded).
	JobTimeout time.Duration
}

// Server is the job-service state: the sweep table plus the shared pool,
// store, and metrics.
type Server struct {
	opts    Options
	store   *jobs.Store
	metrics *jobs.Metrics
	slots   chan struct{}

	mu sync.Mutex
	//ldslint:guardedby mu
	sweeps map[string]*sweep
	//ldslint:guardedby mu
	order []string
	//ldslint:guardedby mu
	nextID int
	//ldslint:guardedby mu
	draining bool
	running  sync.WaitGroup // one count per in-flight runSweep goroutine
}

// New builds a Server, opening the result store when configured.
func New(opts Options) (*Server, error) {
	s := &Server{
		opts:    opts,
		metrics: &jobs.Metrics{},
		sweeps:  make(map[string]*sweep),
	}
	// Size the shared pool once so every sweep draws from the same bound.
	n := opts.Workers
	if n <= 0 {
		n = runtime.NumCPU()
	}
	s.slots = make(chan struct{}, n)
	if opts.CacheDir != "" {
		store, err := jobs.Open(opts.CacheDir)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	return s, nil
}

// sweepRequest is the POST /api/v1/sweeps body. Exactly one of Experiment
// or Benchmarks+{Configs|Specs} must be set.
type sweepRequest struct {
	// Experiment is a registered experiment id ("fig1", ..., "all").
	Experiment string `json:"experiment,omitempty"`
	// Benchmarks + Configs/Specs describe a raw sweep: every benchmark runs
	// under every configuration. Configs are the named CLI configurations.
	// Specs are declarative sim.Spec values; they are validated against the
	// component table at submit and rejected with the known-component
	// catalog on error. Hardware overrides are not statically validated —
	// a config that panics the simulator is contained and reported as a
	// failed job.
	Benchmarks []string   `json:"benchmarks,omitempty"`
	Configs    []string   `json:"configs,omitempty"`
	Specs      []sim.Spec `json:"specs,omitempty"`
	// Scale/Seed are the workload input parameters (defaults 1.0 / 1).
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
}

type sweep struct {
	id    string
	kind  string // "experiment" or "raw"
	req   sweepRequest
	sched *jobs.Scheduler

	mu sync.Mutex
	//ldslint:guardedby mu
	state string // "queued", "running", "done"
	//ldslint:guardedby mu
	failedJobs []string
	//ldslint:guardedby mu
	reports []exp.Report
	//ldslint:guardedby mu
	created time.Time
}

func (sw *sweep) setState(st string) {
	sw.mu.Lock()
	sw.state = st
	sw.mu.Unlock()
}

// decodeSweep decodes and validates one POST /api/v1/sweeps body, filling
// in the default scale and seed. It is the service's only decoder of
// untrusted request bytes, shared by handleSubmit and FuzzSweepSubmit; it
// touches no Server state, so it cannot launch a sweep.
func decodeSweep(body io.Reader) (sweepRequest, error) {
	var req sweepRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request: %w", err)
	}
	return req, validate(&req)
}

// validate rejects malformed submissions before any job is queued.
func validate(req *sweepRequest) error {
	if req.Scale == 0 {
		req.Scale = 1.0
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Scale <= 0 || math.IsNaN(req.Scale) || math.IsInf(req.Scale, 0) {
		return fmt.Errorf("scale must be a positive number, got %v", req.Scale)
	}
	if req.Experiment != "" {
		if len(req.Benchmarks) > 0 || len(req.Configs) > 0 || len(req.Specs) > 0 {
			return fmt.Errorf("submit either an experiment or a raw sweep, not both")
		}
		if _, err := exp.Plan(req.Experiment); err != nil {
			return err
		}
		return nil
	}
	if len(req.Benchmarks) == 0 {
		return fmt.Errorf("missing experiment id or benchmarks list")
	}
	for _, b := range req.Benchmarks {
		if _, err := workload.Get(b); err != nil {
			return err
		}
	}
	if len(req.Configs) == 0 && len(req.Specs) == 0 {
		return fmt.Errorf("raw sweep needs configs or specs")
	}
	for _, cfg := range req.Configs {
		if _, err := sim.Named(cfg, nil); err != nil {
			return err
		}
	}
	// Specs are validated against the component table here, so an
	// unknown component, a throttle+fdp conflict, hints without a consumer,
	// or bad options come back as a 400 with an actionable message (the
	// unknown-component error carries the full catalog) instead of a failed
	// job.
	for i, sp := range req.Specs {
		if sp.Name == "" {
			sp.Name = "spec" + strconv.Itoa(i)
		}
		if err := sp.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Drain stops accepting new sweeps and blocks until every in-flight sweep
// has finished. Result-store writes are synchronous — each object is written
// atomically and its journal line appended before the job completes — so
// when Drain returns, every journal and object write of every accepted sweep
// is on disk. Status and report endpoints keep working while draining, so a
// supervisor can still collect results after sending SIGTERM.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.running.Wait()
}

// submit registers and launches a sweep. It returns nil when the server is
// draining (the caller reports 503).
func (s *Server) submit(req sweepRequest) *sweep {
	sched := jobs.New(jobs.Config{
		Slots:   s.slots,
		Store:   s.store,
		Metrics: s.metrics,
		Verify:  s.opts.Verify,
		Timeout: s.opts.JobTimeout,
	})
	sw := &sweep{
		req:     req,
		sched:   sched,
		state:   "queued",
		created: time.Now(),
		kind:    "raw",
	}
	if req.Experiment != "" {
		sw.kind = "experiment"
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.nextID++
	sw.id = "s" + strconv.Itoa(s.nextID)
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	// Register with the drain group under the same lock that checked the
	// draining flag, so Drain cannot slip between check and Add.
	s.running.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.running.Done()
		s.runSweep(sw)
	}()
	return sw
}

func (s *Server) runSweep(sw *sweep) {
	sw.setState("running")
	ctx := exp.NewContext()
	ctx.Params = workload.Params{Scale: sw.req.Scale, Seed: sw.req.Seed}
	ctx.TrainParams = workload.TrainFor(ctx.Params)
	ctx.Sched = sw.sched

	var reports []exp.Report
	if sw.kind == "experiment" {
		reports, _ = exp.Run(ctx, sw.req.Experiment) // id validated at submit
	} else {
		reports = []exp.Report{exp.RawSweep(ctx, sw.req.Benchmarks, sw.req.Configs, sw.req.Specs)}
	}

	sw.mu.Lock()
	sw.reports = reports
	for _, err := range ctx.JobErrs() {
		sw.failedJobs = append(sw.failedJobs, err.Error())
	}
	sw.state = "done"
	sw.mu.Unlock()
}

// sweepStatus is the GET /api/v1/sweeps/{id} body.
type sweepStatus struct {
	ID         string    `json:"id"`
	Kind       string    `json:"kind"`
	Experiment string    `json:"experiment,omitempty"`
	Benchmarks []string  `json:"benchmarks,omitempty"`
	State      string    `json:"state"`
	Jobs       jobCounts `json:"jobs"`
	FailedJobs []string  `json:"failed_jobs,omitempty"`
	Reports    int       `json:"reports"`
	Created    time.Time `json:"created"`
}

type jobCounts struct {
	Submitted   int64 `json:"submitted"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Queued      int64 `json:"queued"`
	Running     int64 `json:"running"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Computed    int64 `json:"computed"`
	Uncached    int64 `json:"uncached"`
	Coalesced   int64 `json:"coalesced"`
}

func (sw *sweep) status() sweepStatus {
	snap := sw.sched.Metrics().Snapshot()
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sweepStatus{
		ID:         sw.id,
		Kind:       sw.kind,
		Experiment: sw.req.Experiment,
		Benchmarks: sw.req.Benchmarks,
		State:      sw.state,
		Jobs: jobCounts{
			Submitted:   snap.Submitted,
			Completed:   snap.Completed,
			Failed:      snap.Failed,
			Queued:      snap.QueueDepth,
			Running:     snap.WorkersBusy,
			CacheHits:   snap.CacheHits,
			CacheMisses: snap.CacheMisses,
			Computed:    snap.Computed,
			Uncached:    snap.Uncached,
			Coalesced:   snap.Coalesced,
		},
		FailedJobs: append([]string(nil), sw.failedJobs...),
		Reports:    len(sw.reports),
		Created:    sw.created,
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/sweeps", s.handleList)
	mux.HandleFunc("GET /api/v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/report", s.handleReport)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSweep(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sw := s.submit(req)
	if sw == nil {
		httpError(w, http.StatusServiceUnavailable, "server is draining; not accepting new sweeps")
		return
	}
	writeJSON(w, http.StatusAccepted, sw.status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]sweepStatus, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		sw := s.sweeps[id]
		s.mu.Unlock()
		out = append(out, sw.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *sweep {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	s.mu.Unlock()
	if sw == nil {
		httpError(w, http.StatusNotFound, "no sweep %q", id)
	}
	return sw
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sw := s.lookup(w, r); sw != nil {
		writeJSON(w, http.StatusOK, sw.status())
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(w, r)
	if sw == nil {
		return
	}
	sw.mu.Lock()
	state := sw.state
	reports := sw.reports
	sw.mu.Unlock()
	if state != "done" {
		httpError(w, http.StatusConflict, "sweep %s is %s; poll status until done", sw.id, state)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format == "json" {
		// The standard JSON report encoding, one entry per report.
		raw := make([]json.RawMessage, 0, len(reports))
		for _, rep := range reports {
			s, err := rep.JSON()
			if err != nil {
				httpError(w, http.StatusInternalServerError, "encoding report: %v", err)
				return
			}
			raw = append(raw, json.RawMessage(s))
		}
		writeJSON(w, http.StatusOK, raw)
		return
	}
	out := ""
	for _, rep := range reports {
		s, err := rep.Render(format)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		out += s + "\n"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(out))
}

// handleMetrics renders the shared counters in the Prometheus text format:
// queue depth, worker utilization, cache hit/miss counters, and the job
// latency histogram, plus per-state sweep counts.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	var b []byte
	add := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	gauge := func(name string, v int64, help string) {
		add("# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name string, v int64, help string) {
		add("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("ldsjobs_queue_depth", snap.QueueDepth, "jobs waiting for a worker slot")
	gauge("ldsjobs_workers_busy", snap.WorkersBusy, "jobs currently executing")
	gauge("ldsjobs_workers_capacity", int64(cap(s.slots)), "size of the shared worker pool")
	counter("ldsjobs_jobs_submitted_total", snap.Submitted, "jobs submitted")
	counter("ldsjobs_jobs_completed_total", snap.Completed, "jobs finished successfully")
	counter("ldsjobs_jobs_failed_total", snap.Failed, "jobs that failed (error, panic or timeout)")
	counter("ldsjobs_jobs_coalesced_total", snap.Coalesced, "duplicate in-flight jobs served by a leader")
	counter("ldsjobs_jobs_panics_total", snap.Panics, "worker panics contained")
	counter("ldsjobs_jobs_timeouts_total", snap.Timeouts, "jobs abandoned at the deadline")
	counter("ldsjobs_cache_hits_total", snap.CacheHits, "results served from the store")
	counter("ldsjobs_cache_misses_total", snap.CacheMisses, "cacheable jobs that had to compute")
	counter("ldsjobs_cache_computed_total", snap.Computed, "cacheable simulations and profiling passes executed")
	counter("ldsjobs_cache_uncached_total", snap.Uncached, "uncacheable executions (traced runs)")
	counter("ldsjobs_cache_verify_runs_total", snap.VerifyRuns, "determinism checks on cache hits")
	counter("ldsjobs_cache_verify_mismatches_total", snap.VerifyBad, "determinism check failures")

	add("# HELP ldsjobs_job_duration_seconds job execution latency\n")
	add("# TYPE ldsjobs_job_duration_seconds histogram\n")
	cum := int64(0)
	for i, le := range jobs.LatencyBuckets {
		cum += snap.LatencyBucketCounts[i]
		add("ldsjobs_job_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += snap.LatencyBucketCounts[len(jobs.LatencyBuckets)]
	add("ldsjobs_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	add("ldsjobs_job_duration_seconds_sum %g\n", snap.LatencySumSeconds)
	add("ldsjobs_job_duration_seconds_count %d\n", snap.LatencyCount)

	states := map[string]int{}
	s.mu.Lock()
	for _, sw := range s.sweeps { //ldslint:ordered count aggregation; order-insensitive
		sw.mu.Lock()
		states[sw.state]++
		sw.mu.Unlock()
	}
	s.mu.Unlock()
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	add("# HELP ldsserve_sweeps sweeps by state\n# TYPE ldsserve_sweeps gauge\n")
	for _, k := range keys {
		add("ldsserve_sweeps{state=%q} %d\n", k, states[k])
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b)
}
