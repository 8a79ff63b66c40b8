// Command ldsserve runs the simulation job service: an HTTP API over the
// job orchestrator, so sweeps are submitted, observed, cached, and resumed
// as first-class jobs rather than re-simulated in-process.
//
// Usage:
//
//	ldsserve -addr :8080 -cache results/cache -parallel 8
//
// Endpoints (details in ORCHESTRATION.md):
//
//	POST /api/v1/sweeps               submit an experiment or a raw spec sweep
//	GET  /api/v1/sweeps               list sweeps
//	GET  /api/v1/sweeps/{id}          sweep status and progress counts
//	GET  /api/v1/sweeps/{id}/report   fetch reports (json, text, or csv)
//	GET  /metrics                     queue/worker/cache/latency metrics
//	GET  /healthz                     liveness
//
// On SIGTERM or SIGINT it stops accepting sweeps, finishes the accepted
// ones, and exits 0; -verifycache on a restart over the same -cache
// re-executes every hit and fails any job whose fresh result differs.
//
// Example:
//
//	curl -X POST localhost:8080/api/v1/sweeps -d '{"experiment":"fig1","scale":0.5}'
//	curl localhost:8080/api/v1/sweeps/s1
//	curl localhost:8080/api/v1/sweeps/s1/report?format=text
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ldsprefetch/internal/server"
)

func fatal(v ...interface{}) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (enables cross-sweep caching and resume)")
	par := flag.Int("parallel", runtime.NumCPU(), "max concurrent simulations across all sweeps")
	verify := flag.Bool("verifycache", false, "re-run every cache hit and fail jobs on result mismatch (determinism check)")
	timeout := flag.Duration("jobtimeout", 0, "per-job execution timeout (0 = unbounded)")
	flag.Parse()

	if *par <= 0 {
		fatal("ldsserve: -parallel must be > 0 (run 'ldsserve -h' for usage)")
	}
	if *timeout < 0 {
		fatal("ldsserve: -jobtimeout must be non-negative (run 'ldsserve -h' for usage)")
	}

	srv, err := server.New(server.Options{
		CacheDir:   *cacheDir,
		Workers:    *par,
		Verify:     *verify,
		JobTimeout: *timeout,
	})
	if err != nil {
		fatal("ldsserve:", err)
	}
	// Graceful shutdown: on SIGTERM/SIGINT stop accepting new sweeps and
	// drain in-flight sweeps so every journal and result-object write
	// completes before exit. The HTTP listener stays up through the drain,
	// so status and report endpoints keep answering while the queue empties.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("ldsserve: listening on %s (parallel=%d cache=%q)\n", *addr, *par, *cacheDir)

	select {
	case err := <-errc:
		fatal("ldsserve:", err)
	case <-ctx.Done():
		stop() // restore default signal behaviour: a second signal kills
		fmt.Println("ldsserve: signal received; draining in-flight sweeps")
		srv.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "ldsserve: http shutdown:", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("ldsserve:", err)
		}
		fmt.Println("ldsserve: drained; journal and result objects flushed")
	}
}
