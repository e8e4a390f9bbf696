// Package serve implements npserve: a batched, deduplicating HTTP/JSON
// front end for the balanced register-allocation engine (stdlib only).
//
// The request path composes three layers in front of one engine:
//
//	admission  — a bounded, per-tenant fair queue (weighted deficit
//	             round robin over the X-Tenant header) with priority-
//	             aware shedding: under pressure low-priority work is
//	             refused first, then normal, and only at the hard bound
//	             high — each refusal a 429 whose Retry-After is derived
//	             from the live backlog and observed service rate. An
//	             upstream deadline budget (X-Deadline-Ms) clamps the
//	             per-request context so it survives the hop.
//	dedup      — requests are canonicalized and hashed (core.WireRequest.
//	             CanonicalKey); identical requests share one engine
//	             invocation, whether they overlap in flight
//	             (singleflight) or repeat shortly after one another
//	             (a bounded LRU of completed flights — the serving-layer
//	             analog of the engine's PR-1 Solve memo cache).
//	batching   — a collector goroutine drains the queue into batches of
//	             up to MaxBatch leader jobs and runs each batch as one
//	             engine invocation over the PR-1 worker pool: a lone job
//	             keeps intra-request parallelism (Config.Workers inside
//	             the engine), a full batch switches to inter-request
//	             parallelism (one worker per job). The engine's
//	             determinism contract (bit-identical results at every
//	             worker count) makes the two schedules observably
//	             equivalent, which the wire-level differential tests pin.
//
// The PR-2 failure model is carried end to end: request deadlines map
// to ErrTimeout/HTTP 504, the error taxonomy maps onto HTTP statuses
// (400 invalid, 422 infeasible, 429 overload, 500 internal, 503
// draining, 504 timeout — every non-2xx body is a core.WireError),
// degraded static-partition results are flagged in the response rather
// than hidden, and SIGTERM drains gracefully: in-flight requests
// finish, new ones are refused.
//
// The completed-flight LRU behind dedup is the only request-level
// cache: every request is identified by its canonical key alone, however
// its JSON is spelled. It is one lru.Cache, the same type under
// funccache's body tier, its per-body records and their rewrites,
// serialised by Server.flightMu.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"npra/internal/core"
	"npra/internal/core/errs"
	"npra/internal/faultinject"
	"npra/internal/funccache"
	"npra/internal/ir"
	"npra/internal/parallel"
)

// Config parameterizes a Server. Zero values take the noted defaults.
type Config struct {
	// NReg is the register budget applied to requests that omit nreg
	// (default 128, the IXP1200 file).
	NReg int

	// Workers bounds the engine's worker pool per invocation (0 =
	// GOMAXPROCS). The allocation result is identical for every value.
	Workers int

	// MaxQueue bounds the admission queue (default 64): leader jobs
	// beyond it are refused with 429 + Retry-After.
	MaxQueue int

	// MaxBatch bounds how many queued jobs one engine invocation runs
	// (default 4; 1 disables batching).
	MaxBatch int

	// DefaultTimeout is the per-request deadline when the request does
	// not set timeout_ms (default 10s); MaxTimeout caps what a request
	// may ask for (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// CacheEntries bounds the completed-result LRU (default 256;
	// negative disables result caching, leaving only in-flight dedup).
	CacheEntries int

	// FuncCacheEntries bounds the function-level warm cache (default
	// 256 distinct bodies; negative disables it). Unlike the result LRU
	// above — which only answers requests with the same canonical key —
	// the function cache reuses work across *different* requests that
	// embed the same thread bodies: one record per body holds its
	// analysis, warm allocator memo tables, and up to
	// funccache.RewritesPerBody rewritten bodies keyed by grant and
	// palette, so a warm allocation's code emission is a lookup (or a
	// flat register relocation) instead of a re-run of the rewriter.
	FuncCacheEntries int

	// BodyCacheEntries bounds the compiled-body cache (default 1024
	// bodies; negative disables it), which skips re-assembling masm
	// source / re-generating progen specs seen before.
	BodyCacheEntries int

	// RetryAfter is the *floor* of the client backoff hint attached to
	// 429/503 responses (default 1s, rounded up to whole seconds on the
	// wire). The actual hint is derived from the live backlog and the
	// observed per-job service time — see retryAfterHint.
	RetryAfter time.Duration

	// MaxBodyBytes bounds a request body (default 1 MiB).
	MaxBodyBytes int64

	// MaxTenantQueue bounds one tenant's share of the admission queue
	// (default MaxQueue — no isolation until set lower). With N rival
	// tenants, setting this near MaxQueue/N keeps any single tenant
	// from consuming the whole admission budget.
	MaxTenantQueue int

	// TenantWeights assigns DRR weights to tenants (the X-Tenant
	// request header; "default" otherwise). Absent tenants weigh 1.
	// While two tenants both stay backlogged, their completed work
	// converges to the weight ratio.
	TenantWeights map[string]int

	// ShedLowFrac and ShedNormalFrac are the backlog fractions (of
	// MaxQueue) past which low- and normal-priority requests are shed
	// with 429 (defaults 0.5 and 0.85; high priority is refused only at
	// the hard MaxQueue bound). Negative disables that shed tier.
	ShedLowFrac    float64
	ShedNormalFrac float64
}

func (c Config) withDefaults() Config {
	if c.NReg == 0 {
		c.NReg = 128
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 4
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.FuncCacheEntries == 0 {
		c.FuncCacheEntries = 256
	}
	if c.FuncCacheEntries < 0 {
		c.FuncCacheEntries = 0
	}
	if c.BodyCacheEntries == 0 {
		c.BodyCacheEntries = 1024
	}
	if c.BodyCacheEntries < 0 {
		c.BodyCacheEntries = 0
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxTenantQueue <= 0 || c.MaxTenantQueue > c.MaxQueue {
		c.MaxTenantQueue = c.MaxQueue
	}
	if c.ShedLowFrac == 0 {
		c.ShedLowFrac = 0.5
	}
	if c.ShedNormalFrac == 0 {
		c.ShedNormalFrac = 0.85
	}
	return c
}

// shedDepth converts a shed fraction into an absolute backlog depth:
// negative fractions disable the tier (refusal only at capacity).
func shedDepth(frac float64, capacity int) int {
	if frac < 0 || frac >= 1 {
		return capacity
	}
	d := int(frac * float64(capacity))
	if d < 1 {
		d = 1
	}
	return d
}

// Response is the transport envelope npserve returns on success: the
// engine's wire response plus serving-layer fields.
type Response struct {
	core.WireResponse

	// Shared marks a response answered by a flight this request did not
	// lead (an in-flight join or a cache hit); Cached narrows that to
	// the completed-result LRU.
	Shared bool `json:"shared"`
	Cached bool `json:"cached"`

	// Batched is the size of the engine batch the result was computed
	// in (1 = unbatched).
	Batched int `json:"batched"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// job is one leader request queued for the engine.
type job struct {
	req      *core.WireRequest
	funcs    []*ir.Func
	tenant   string          // admission tenant (X-Tenant header; "default" otherwise)
	priority string          // admission class ("", "low", "normal", "high")
	ctx      context.Context // detached from the client connection; carries the request deadline
	cancel   context.CancelFunc
	fl       *flight
}

// Request headers the admission layer reads.
const (
	// TenantHeader names the admission tenant for fair queuing.
	TenantHeader = "X-Tenant"
	// DeadlineHeader carries an upstream caller's remaining deadline
	// budget in milliseconds; it clamps the per-request context so the
	// budget survives the hop (a hop-by-hop deadline, not a timestamp —
	// immune to clock skew between hops).
	DeadlineHeader = "X-Deadline-Ms"

	// defaultTenant is the admission tenant of requests without an
	// X-Tenant header.
	defaultTenant = "default"
	// maxTenantLen bounds the tenant header (metric-label cardinality
	// and memory are keyed by it).
	maxTenantLen = 64
)

// errOverload resolves flights abandoned at admission; it wraps nothing
// from the taxonomy because it maps to its own wire kind ("overload").
var errOverload = errors.New("serve: admission queue full")

// Server is the allocation service. Create with New, expose via
// Handler, stop with Drain (or Close).
type Server struct {
	cfg     Config
	metrics *Metrics

	flightMu sync.Mutex
	fg       *flightGroup

	// fcache and bodies are the function-granular layers under the
	// request-granular dedup above: nil when disabled by config.
	fcache *funccache.Cache
	bodies *funccache.BodyCache

	queue *fairQueue

	// admit gates request admission against drain: every in-flight
	// allocation request holds a read lock; Drain sets draining and
	// then takes the write lock, which waits for them to finish.
	admit    sync.RWMutex
	draining atomic.Bool

	closeQueue  sync.Once
	batcherDone chan struct{}

	mux *http.ServeMux
}

// New returns a running Server (its batch collector is started
// immediately). Stop it with Drain or Close.
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg.withDefaults(),
		metrics:     newMetrics(),
		batcherDone: make(chan struct{}),
	}
	s.fg = newFlightGroup(s.cfg.CacheEntries)
	if s.cfg.FuncCacheEntries > 0 {
		s.fcache = funccache.New(funccache.Config{Entries: s.cfg.FuncCacheEntries})
	}
	if s.cfg.BodyCacheEntries > 0 {
		s.bodies = funccache.NewBodyCache(s.cfg.BodyCacheEntries)
	}
	s.queue = newFairQueue(
		s.cfg.MaxQueue,
		s.cfg.MaxTenantQueue,
		shedDepth(s.cfg.ShedLowFrac, s.cfg.MaxQueue),
		shedDepth(s.cfg.ShedNormalFrac, s.cfg.MaxQueue),
		s.cfg.TenantWeights,
	)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/allocate", s.handleAllocate)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	go s.batcher()
	return s
}

// Handler returns the service's HTTP handler: POST /allocate, GET
// /metrics, GET /healthz.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns a snapshot of the serving counters.
func (s *Server) Metrics() *Snapshot {
	snap := s.metrics.snapshot(s.queue.depth(), s.queue.tenantDepths(), s.cacheStats())
	snap.RetryAfterS = retryAfterHint(snap.QueueDepth, snap.ServiceEWMA, s.cfg.RetryAfter)
	return snap
}

// cacheStats snapshots the optional cache tiers (zero stats when a tier
// is disabled).
func (s *Server) cacheStats() TierStats {
	var cs TierStats
	if s.fcache != nil {
		cs.FuncCache = s.fcache.Stats()
	}
	if s.bodies != nil {
		cs.BodyCache = s.bodies.Stats()
	}
	return cs
}

// Drain gracefully stops the server: new allocation requests are
// refused with 503 immediately, in-flight requests (and their engine
// work) run to completion, then the batch collector exits. Bounded by
// ctx: on expiry the drain keeps finishing in the background but Drain
// returns an ErrTimeout-wrapped error.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.admit.Lock() // waits for every admitted request to finish
		defer s.admit.Unlock()
		s.closeQueue.Do(s.queue.close)
		<-s.batcherDone // the collector drains jobs already queued
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: drain interrupted: %v", errs.ErrTimeout, ctx.Err())
	}
}

// Close is Drain without a deadline.
func (s *Server) Close() error { return s.Drain(context.Background()) }

// Draining reports whether the server has begun (or finished) a drain.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"}, s.retryAfterSeconds())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"}, 0)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, s.metrics.render(s.queue.depth(), s.queue.tenantDepths(), s.cacheStats()))
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	start := now()
	status, body := s.safeAllocate(r, start)
	s.metrics.observe(status, since(start))
	retry := 0
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		retry = s.retryAfterSeconds()
	}
	writeJSON(w, status, body, retry)
}

// safeAllocate is allocate behind a panic barrier: a panic anywhere in
// the request path (including an injected one at SiteServe) becomes a
// typed 500, never a dropped connection.
func (s *Server) safeAllocate(r *http.Request, start time.Time) (status int, body any) {
	defer func() {
		if rec := recover(); rec != nil {
			status = http.StatusInternalServerError
			body = &core.WireError{Error: fmt.Sprintf("serve: recovered panic: %v", rec), Kind: "internal"}
		}
	}()
	return s.allocate(r, start)
}

func (s *Server) allocate(r *http.Request, start time.Time) (int, any) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, &core.WireError{Error: "POST required", Kind: "invalid"}
	}
	if s.draining.Load() || !s.admit.TryRLock() {
		s.metrics.drainRefusal()
		return http.StatusServiceUnavailable, &core.WireError{Error: "server is draining", Kind: "draining"}
	}
	defer s.admit.RUnlock()
	if s.draining.Load() { // drain began between the flag check and the lock
		s.metrics.drainRefusal()
		return http.StatusServiceUnavailable, &core.WireError{Error: "server is draining", Kind: "draining"}
	}

	dec := json.NewDecoder(io.LimitReader(r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	req := new(core.WireRequest)
	if err := dec.Decode(req); err != nil {
		return http.StatusBadRequest, &core.WireError{Error: "bad request body: " + err.Error(), Kind: "invalid"}
	}
	if dec.More() {
		return http.StatusBadRequest, &core.WireError{Error: "trailing data after request object", Kind: "invalid"}
	}
	// Normalize before keying: an omitted nreg and an explicit server
	// default are the same request.
	if req.NReg == 0 {
		req.NReg = s.cfg.NReg
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = defaultTenant
	}
	if len(tenant) > maxTenantLen {
		return http.StatusBadRequest, &core.WireError{
			Error: fmt.Sprintf("%s header exceeds %d bytes", TenantHeader, maxTenantLen), Kind: "invalid"}
	}
	funcs, err := req.FuncsCached(s.compiledBodies())
	if err != nil {
		return statusOf(err), &core.WireError{Error: err.Error(), Kind: core.ErrorKind(err)}
	}

	deadline := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		deadline = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxTimeout {
		deadline = s.cfg.MaxTimeout
	}
	// Deadline propagation: an upstream caller's remaining budget
	// (X-Deadline-Ms) clamps the per-request deadline, so a chain of
	// hops shares one budget instead of each hop restarting the clock.
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil {
			return http.StatusBadRequest, &core.WireError{
				Error: fmt.Sprintf("bad %s header %q: %v", DeadlineHeader, h, perr), Kind: "invalid"}
		}
		if ms <= 0 {
			return http.StatusGatewayTimeout, &core.WireError{
				Error: "upstream deadline budget already exhausted", Kind: "timeout"}
		}
		if d := time.Duration(ms) * time.Millisecond; d < deadline {
			deadline = d
		}
	}
	hctx, hcancel := context.WithTimeout(r.Context(), deadline)
	defer hcancel()

	if err := faultinject.Fire(hctx, faultinject.SiteServe); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return http.StatusGatewayTimeout, &core.WireError{Error: "request deadline expired: " + err.Error(), Kind: "timeout"}
		}
		return http.StatusInternalServerError, &core.WireError{Error: "serve: " + err.Error(), Kind: "internal"}
	}

	// Body-cache hits hand back frozen bodies that keep their content
	// key, so keying a warm request hashes no body.
	key := req.CanonicalKey(funcs)
	fl, kind := s.joinOrEnqueue(key, req, funcs, tenant, deadline)
	s.metrics.join(kind)
	if kind == joinLeader || kind == joinInflight {
		s.metrics.tenantAdmitted(tenant)
	}
	if kind != joinCached {
		select {
		case <-fl.done:
		case <-hctx.Done():
			return http.StatusGatewayTimeout, &core.WireError{Error: "request deadline expired while allocating", Kind: "timeout"}
		}
	}
	if fl.err != nil {
		var oe *overloadError
		if errors.As(fl.err, &oe) {
			s.metrics.overloadReason(tenant, oe.reason)
			return http.StatusTooManyRequests, &core.WireError{Error: fl.err.Error(), Kind: "overload"}
		}
		if errors.Is(fl.err, errOverload) {
			s.metrics.overloadReason(tenant, admitQueueFull)
			return http.StatusTooManyRequests, &core.WireError{Error: fl.err.Error(), Kind: "overload"}
		}
		return statusOf(fl.err), &core.WireError{Error: fl.err.Error(), Kind: core.ErrorKind(fl.err)}
	}
	s.metrics.tenantCompleted(tenant)
	resp := &Response{
		WireResponse: *fl.alloc.Wire(req.Dump),
		Shared:       kind != joinLeader,
		Cached:       kind == joinCached,
		Batched:      fl.batched,
		ElapsedMS:    float64(since(start).Nanoseconds()) / 1e6,
	}
	return http.StatusOK, resp
}

// joinOrEnqueue joins the flight for key and, when this request leads
// it, enqueues the engine job — atomically with respect to other
// joiners, so an admission refusal resolves the flight for everyone who
// raced onto it. Admission applies the fair queue's shedding policy:
// per-tenant depth caps and priority-tiered backlog thresholds.
func (s *Server) joinOrEnqueue(key string, req *core.WireRequest, funcs []*ir.Func, tenant string, deadline time.Duration) (*flight, joinKind) {
	s.flightMu.Lock()
	fl, kind := s.fg.join(key)
	if kind != joinLeader {
		s.flightMu.Unlock()
		return fl, kind
	}
	// The job's context is detached from the client connection: waiters
	// other than the leader may still need the result after the leader
	// disconnects. The request deadline still applies.
	jctx, jcancel := context.WithTimeout(context.Background(), deadline)
	j := &job{req: req, funcs: funcs, tenant: tenant, priority: req.Priority,
		ctx: jctx, cancel: jcancel, fl: fl}
	if err := s.queue.push(j); err != nil {
		s.fg.abandon(fl)
		fl.err = err
		s.flightMu.Unlock()
		close(fl.done)
		jcancel()
	} else {
		s.flightMu.Unlock()
	}
	return fl, kind
}

// batcher is the collector goroutine: it pulls the next job in DRR
// order, greedily drains whatever else is immediately queued (up to
// MaxBatch, still in DRR order — so a batch interleaves tenants the
// same way serial draining would), and runs the batch as one engine
// invocation. It exits when the queue is closed and fully drained
// (during Drain, after all admitted requests finish).
func (s *Server) batcher() {
	defer close(s.batcherDone)
	for {
		j, ok := s.queue.pop(true)
		if !ok {
			return
		}
		batch := make([]*job, 1, s.cfg.MaxBatch)
		batch[0] = j
		for len(batch) < s.cfg.MaxBatch {
			j, ok := s.queue.pop(false)
			if !ok {
				break
			}
			batch = append(batch, j)
		}
		s.runBatch(batch)
	}
}

// runBatch executes one engine invocation over the batch. A lone job
// keeps the engine's internal parallelism; a real batch fans out across
// the worker pool with one serial engine per job — bit-identical either
// way, per the engine's determinism contract.
func (s *Server) runBatch(batch []*job) {
	s.metrics.batch(len(batch))
	if len(batch) == 1 {
		s.runJob(batch[0], s.cfg.Workers, 1)
		return
	}
	parallel.ForEach(parallel.Workers(s.cfg.Workers), len(batch), func(i int) {
		s.runJob(batch[i], 1, len(batch))
	})
}

// compiledBodies adapts the optional body cache to the core interface;
// the explicit nil check avoids handing core a typed-nil interface.
func (s *Server) compiledBodies() core.CompiledBodies {
	if s.bodies == nil {
		return nil
	}
	return s.bodies
}

func (s *Server) runJob(j *job, workers, batched int) {
	defer j.cancel()
	jobStart := now()
	cfg := core.Config{NReg: j.req.NReg, Workers: workers}
	if s.fcache != nil {
		cfg.FuncCache, cfg.RewriteCache = s.fcache, s.fcache
	}
	var alloc *core.Allocation
	var err error
	if j.req.Mode == "sra" {
		alloc, err = core.AllocateSRACtx(j.ctx, j.funcs[0], j.req.NThd, cfg)
	} else {
		alloc, err = core.AllocateARACtx(j.ctx, j.funcs, cfg)
	}
	s.metrics.jobDone(since(jobStart))
	if alloc != nil {
		s.metrics.engineResult(alloc.SolveCache, alloc.Phases, alloc.Degraded)
	}
	j.fl.batched = batched
	s.flightMu.Lock()
	s.fg.complete(j.fl, alloc, err)
	s.flightMu.Unlock()
	close(j.fl.done)
}

// statusOf maps a taxonomy error onto its HTTP status (the table in
// docs/INTERNALS.md §10).
func statusOf(err error) int {
	switch {
	case errors.Is(err, core.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrTimeout):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds derives the Retry-After hint from the live backlog:
// the estimated time to drain the current queue at the observed per-job
// service rate, floored by cfg.RetryAfter. A deeper queue tells clients
// to stay away longer — the PR-5 constant told every client to hammer
// back after exactly one second regardless of pressure.
func (s *Server) retryAfterSeconds() int {
	return retryAfterHint(s.queue.depth(), s.metrics.serviceEWMA(), s.cfg.RetryAfter)
}

// retryAfterHint is the pure form of the Retry-After derivation:
// ceil(max(floor, (depth+1) × perJob)) in whole seconds, never below
// 1s (the wire unit). It is monotonically non-decreasing in depth and
// in perJob — the property TestRetryAfterMonotone pins.
func retryAfterHint(depth int, perJob, floor time.Duration) int {
	est := time.Duration(depth+1) * perJob
	if est < floor {
		est = floor
	}
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, body any, retryAfterSeconds int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}
