// Command npserve runs the batched, deduplicating allocation service
// over HTTP/JSON.
//
// Endpoints:
//
//	POST /allocate  — one allocation request (see core.WireRequest);
//	                  requests with the same canonical key, however
//	                  their JSON is spelled, share one engine invocation
//	                  (in flight or from the -cache result LRU); queued
//	                  requests run batched over the worker pool
//	GET  /metrics   — request/latency histograms, singleflight and
//	                  batch counters, engine phase timings
//	GET  /healthz   — 200 while serving, 503 while draining
//
// On SIGTERM/SIGINT the server drains: in-flight requests finish, new
// ones are refused with 503, then the process exits.
//
// Usage:
//
//	npserve [-addr :8080] [-nreg 128] [-j N] [-queue 64] [-batch 4]
//	        [-cache 256] [-funccache-entries 256] [-bodycache-entries 1024]
//	        [-timeout 10s] [-max-timeout 60s] [-drain-timeout 30s]
//	        [-tenant-queue 16] [-tenant-weights heavy=3,light=1]
//	        [-shed-low 0.5] [-shed-normal 0.85]
//
// Admission is per-tenant fair (weighted deficit round robin over the
// X-Tenant header) with priority-aware shedding: past -shed-low of the
// backlog, requests with "priority":"low" are refused with 429; past
// -shed-normal, normal-priority requests follow; high priority is only
// refused at the hard -queue bound. 429/503 responses carry a
// Retry-After derived from the live backlog and observed service rate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"npra/internal/funccache"
	"npra/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		nreg         = flag.Int("nreg", 128, "default register budget for requests that omit nreg")
		jobs         = flag.Int("j", runtime.GOMAXPROCS(0), "engine worker goroutines (the allocation is identical for any value)")
		queue        = flag.Int("queue", 64, "admission queue bound; beyond it requests get 429")
		batch        = flag.Int("batch", 4, "max queued requests per engine invocation (1 disables batching)")
		cache        = flag.Int("cache", 256, "completed-result cache entries (negative disables)")
		funcCache    = flag.Int("funccache-entries", 256, "function-level warm cache entries: distinct bodies whose analyses, Solve memos and rewritten code survive across requests (negative disables)")
		bodyCache    = flag.Int("bodycache-entries", 1024, "compiled-body cache entries: parsed/generated thread bodies reused across requests (negative disables)")
		timeout      = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout   = flag.Duration("max-timeout", 60*time.Second, "cap on the per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

		tenantQueue   = flag.Int("tenant-queue", 0, "per-tenant admission bound (0 = the whole queue; set near queue/N to isolate N rivals)")
		tenantWeights = flag.String("tenant-weights", "", "DRR tenant weights as tenant=weight,... (absent tenants weigh 1)")
		shedLow       = flag.Float64("shed-low", 0.5, "backlog fraction past which low-priority requests are shed (negative disables)")
		shedNormal    = flag.Float64("shed-normal", 0.85, "backlog fraction past which normal-priority requests are shed (negative disables)")
	)
	flag.Parse()
	weights, err := serve.ParseTenantWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npserve:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	cfg := serve.Config{
		NReg:           *nreg,
		Workers:        *jobs,
		MaxQueue:       *queue,
		MaxBatch:       *batch,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,

		FuncCacheEntries: *funcCache,
		BodyCacheEntries: *bodyCache,

		MaxTenantQueue: *tenantQueue,
		TenantWeights:  weights,
		ShedLowFrac:    *shedLow,
		ShedNormalFrac: *shedNormal,
	}
	if err := run(ctx, *addr, cfg, *drainTimeout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "npserve:", err)
		os.Exit(1)
	}
}

// run starts the service on addr and blocks until ctx is cancelled and
// the drain completes. If ready is non-nil, the bound listener address
// is sent on it once the server is accepting (for tests).
func run(ctx context.Context, addr string, cfg serve.Config, drainTimeout time.Duration, ready chan<- string) error {
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "npserve: listening on %s (workers %d, queue %d, batch %d, cache %d, funccache %d x %d rewrites, bodycache %d)\n",
		ln.Addr(), cfg.Workers, cfg.MaxQueue, cfg.MaxBatch, cfg.CacheEntries, cfg.FuncCacheEntries, funccache.RewritesPerBody, cfg.BodyCacheEntries)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "npserve: draining (in-flight requests will finish)")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := s.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(os.Stderr, "npserve: drained cleanly")
	return nil
}
