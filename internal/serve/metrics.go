package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"npra/internal/funccache"
	"npra/internal/intra"
	"npra/internal/lru"
)

// latencyBucketsMS are the upper bounds (inclusive, in milliseconds) of
// the request-latency histogram; a final implicit +Inf bucket catches
// the tail. Log-spaced: the interesting territory spans sub-millisecond
// cache hits to multi-second degraded engine runs.
var latencyBucketsMS = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// maxTenantLabels caps the tenants the per-tenant counters break out.
// X-Tenant is client-controlled, so the first maxTenantLabels tenants
// seen keep their own label and every later one is counted under
// otherTenant: the counter maps and the /metrics exposition stay
// bounded however many distinct tenants arrive.
const (
	maxTenantLabels = 64
	otherTenant     = "other"
)

// Metrics aggregates the serving layer's counters. All methods are safe
// for concurrent use. The zero value is not usable; Server owns the one
// instance and exposes read access via Server.Metrics (snapshot) and the
// /metrics endpoint (text rendering).
type Metrics struct {
	mu sync.Mutex

	requests map[int]int64 // HTTP status -> count, over all endpoints' allocation requests
	latency  []int64       // histogram counts, len(latencyBucketsMS)+1
	latSumNS int64
	latCount int64

	sfInflightHits int64 // joined a flight still running
	sfCachedHits   int64 // joined a completed flight held in the result cache
	sfMisses       int64 // led a new flight (one engine invocation each, minus overload aborts)

	batches       int64 // engine invocations (each runs one batch)
	batchRequests int64 // leader jobs executed across all batches
	maxBatch      int64 // largest batch executed

	degraded  int64 // engine results with the static-partition fallback flag
	overloads int64 // requests refused with 429
	drains    int64 // requests refused with 503 (draining)

	sheds           map[string]int64 // admission-refusal reason -> count (shed_low, shed_normal, queue_full, tenant_full)
	tenantAdmit     map[string]int64 // tenant -> requests entering the pipeline (leader or in-flight join)
	tenantComplete  map[string]int64 // tenant -> requests answered 200
	tenantOverloads map[string]int64 // tenant -> requests refused 429
	tenantLabels    map[string]bool  // tenants with their own label, at most maxTenantLabels

	svcEWMANS float64 // exponentially weighted moving average of per-job engine service time
	jobsDone  int64   // engine jobs measured into the EWMA

	solveCache intra.CacheStats // engine Solve-point cache, summed over invocations
	phases     intra.PhaseStats // engine per-phase timings, summed over invocations
}

func newMetrics() *Metrics {
	return &Metrics{
		requests:        make(map[int]int64),
		latency:         make([]int64, len(latencyBucketsMS)+1),
		sheds:           make(map[string]int64),
		tenantAdmit:     make(map[string]int64),
		tenantComplete:  make(map[string]int64),
		tenantOverloads: make(map[string]int64),
		tenantLabels:    make(map[string]bool),
	}
}

// tenantLabel returns the label tenant is counted under. Callers hold
// m.mu.
func (m *Metrics) tenantLabel(tenant string) string {
	if !m.tenantLabels[tenant] {
		if len(m.tenantLabels) >= maxTenantLabels {
			return otherTenant
		}
		m.tenantLabels[tenant] = true
	}
	return tenant
}

// observe records one finished allocation request: its response status
// and its handler-side latency.
func (m *Metrics) observe(status int, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[status]++
	m.latCount++
	m.latSumNS += d.Nanoseconds()
	for i, ub := range latencyBucketsMS {
		if ms <= ub {
			m.latency[i]++
			return
		}
	}
	m.latency[len(latencyBucketsMS)]++
}

func (m *Metrics) join(kind joinKind) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch kind {
	case joinLeader:
		m.sfMisses++
	case joinInflight:
		m.sfInflightHits++
	case joinCached:
		m.sfCachedHits++
	}
}

// overloadReason records one 429 refusal with its admission reason
// (queue_full, tenant_full, shed_low, shed_normal, closed) and tenant.
func (m *Metrics) overloadReason(tenant, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.overloads++
	m.sheds[reason]++
	m.tenantOverloads[m.tenantLabel(tenant)]++
}

// tenantAdmitted records one request entering the allocation pipeline
// for tenant (leading a flight or joining one in flight).
func (m *Metrics) tenantAdmitted(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantAdmit[m.tenantLabel(tenant)]++
}

// tenantCompleted records one 200 answered for tenant.
func (m *Metrics) tenantCompleted(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tenantComplete[m.tenantLabel(tenant)]++
}

// jobDone folds one engine job's wall duration into the service-time
// EWMA that the adaptive Retry-After derivation reads (α = 0.2: a few
// dozen jobs dominate, old history decays).
func (m *Metrics) jobDone(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsDone++
	ns := float64(d.Nanoseconds())
	if m.jobsDone == 1 {
		m.svcEWMANS = ns
		return
	}
	m.svcEWMANS = 0.8*m.svcEWMANS + 0.2*ns
}

// serviceEWMA returns the smoothed per-job engine service time (0
// before the first job completes).
func (m *Metrics) serviceEWMA() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.svcEWMANS)
}

func (m *Metrics) drainRefusal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drains++
}

// batch records one engine invocation over n batched jobs.
func (m *Metrics) batch(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	m.batchRequests += int64(n)
	if int64(n) > m.maxBatch {
		m.maxBatch = int64(n)
	}
}

// engineResult folds one engine result's counters in (nil alloc on
// engine error).
func (m *Metrics) engineResult(cache intra.CacheStats, phases intra.PhaseStats, degraded bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solveCache.Add(cache)
	m.phases.Add(phases)
	if degraded {
		m.degraded++
	}
}

// Snapshot is a point-in-time copy of the serving metrics, for tests
// and programmatic scraping.
type Snapshot struct {
	Requests map[int]int64

	LatencyCount int64
	LatencySumNS int64

	SingleflightInflightHits int64
	SingleflightCachedHits   int64
	SingleflightMisses       int64

	Batches       int64
	BatchRequests int64
	MaxBatch      int64

	Degraded  int64
	Overloads int64
	Drains    int64

	// Sheds maps each admission-refusal reason (shed_low, shed_normal,
	// queue_full, tenant_full) to its 429 count; the per-tenant maps
	// break admissions, completions, refusals and live backlog out by
	// X-Tenant.
	Sheds            map[string]int64
	TenantAdmitted   map[string]int64
	TenantCompleted  map[string]int64
	TenantOverloads  map[string]int64
	TenantQueueDepth map[string]int

	// ServiceEWMA is the smoothed per-job engine service time feeding
	// the adaptive Retry-After hint; RetryAfterS is that hint as of the
	// snapshot.
	ServiceEWMA time.Duration
	RetryAfterS int

	QueueDepth int

	SolveCache intra.CacheStats
	Phases     intra.PhaseStats

	TierStats
}

// TierStats holds the function-granular cache tiers' counters,
// snapshotted from the Server's caches (zero when a tier is disabled).
type TierStats struct {
	FuncCache funccache.Stats
	BodyCache lru.Stats
}

// SingleflightHits returns in-flight joins plus cached joins: every
// request answered without its own engine invocation.
func (s *Snapshot) SingleflightHits() int64 {
	return s.SingleflightInflightHits + s.SingleflightCachedHits
}

// SingleflightHitRate returns SingleflightHits / all singleflight
// lookups, or 0 before the first request.
func (s *Snapshot) SingleflightHitRate() float64 {
	total := s.SingleflightHits() + s.SingleflightMisses
	if total == 0 {
		return 0
	}
	return float64(s.SingleflightHits()) / float64(total)
}

func (m *Metrics) snapshot(queueDepth int, tenants []tenantDepth, cs TierStats) *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{
		Requests:                 make(map[int]int64, len(m.requests)),
		Sheds:                    copyCounts(m.sheds),
		TenantAdmitted:           copyCounts(m.tenantAdmit),
		TenantCompleted:          copyCounts(m.tenantComplete),
		TenantOverloads:          copyCounts(m.tenantOverloads),
		TenantQueueDepth:         make(map[string]int, len(tenants)),
		ServiceEWMA:              time.Duration(m.svcEWMANS),
		LatencyCount:             m.latCount,
		LatencySumNS:             m.latSumNS,
		SingleflightInflightHits: m.sfInflightHits,
		SingleflightCachedHits:   m.sfCachedHits,
		SingleflightMisses:       m.sfMisses,
		Batches:                  m.batches,
		BatchRequests:            m.batchRequests,
		MaxBatch:                 m.maxBatch,
		Degraded:                 m.degraded,
		Overloads:                m.overloads,
		Drains:                   m.drains,
		QueueDepth:               queueDepth,
		SolveCache:               m.solveCache,
		Phases:                   m.phases,
		TierStats:                cs,
	}
	for code, n := range m.requests {
		s.Requests[code] = n
	}
	for _, td := range tenants {
		s.TenantQueueDepth[td.Tenant] = td.Depth
	}
	return s
}

// copyCounts clones a counter map for a snapshot.
func copyCounts(src map[string]int64) map[string]int64 {
	dst := make(map[string]int64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// render writes the text exposition format: one "name value" line per
// counter, Prometheus-style labels for the few multi-dimensional ones.
// Output is fully deterministic (sorted codes, fixed bucket and phase
// order).
func (m *Metrics) render(queueDepth int, tenants []tenantDepth, cs TierStats) string {
	m.mu.Lock()
	defer m.mu.Unlock()

	var b strings.Builder
	var codes []int
	for code := range m.requests {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(&b, "npserve_requests_total{code=%q} %d\n", fmt.Sprint(code), m.requests[code])
	}

	cum := int64(0)
	for i, ub := range latencyBucketsMS {
		cum += m.latency[i]
		fmt.Fprintf(&b, "npserve_latency_ms_bucket{le=%q} %d\n", trimFloat(ub), cum)
	}
	cum += m.latency[len(latencyBucketsMS)]
	fmt.Fprintf(&b, "npserve_latency_ms_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "npserve_latency_ms_count %d\n", m.latCount)
	fmt.Fprintf(&b, "npserve_latency_ms_sum %.3f\n", float64(m.latSumNS)/1e6)

	hits := m.sfInflightHits + m.sfCachedHits
	fmt.Fprintf(&b, "npserve_singleflight_hits %d\n", hits)
	fmt.Fprintf(&b, "npserve_singleflight_inflight_hits %d\n", m.sfInflightHits)
	fmt.Fprintf(&b, "npserve_singleflight_cached_hits %d\n", m.sfCachedHits)
	fmt.Fprintf(&b, "npserve_singleflight_misses %d\n", m.sfMisses)
	fmt.Fprintf(&b, "npserve_singleflight_hit_rate %.4f\n", rate(hits, m.sfMisses))

	fmt.Fprintf(&b, "npserve_engine_invocations_total %d\n", m.batches)
	fmt.Fprintf(&b, "npserve_batched_requests_total %d\n", m.batchRequests)
	fmt.Fprintf(&b, "npserve_batch_max_size %d\n", m.maxBatch)

	fmt.Fprintf(&b, "npserve_degraded_total %d\n", m.degraded)
	fmt.Fprintf(&b, "npserve_overload_total %d\n", m.overloads)
	fmt.Fprintf(&b, "npserve_drain_refusals_total %d\n", m.drains)
	fmt.Fprintf(&b, "npserve_queue_depth %d\n", queueDepth)

	for _, reason := range sortedKeys(m.sheds) {
		fmt.Fprintf(&b, "npserve_shed_total{reason=%q} %d\n", reason, m.sheds[reason])
	}
	for _, tn := range sortedKeys(m.tenantAdmit) {
		fmt.Fprintf(&b, "npserve_tenant_admitted_total{tenant=%q} %d\n", tn, m.tenantAdmit[tn])
	}
	for _, tn := range sortedKeys(m.tenantComplete) {
		fmt.Fprintf(&b, "npserve_tenant_completed_total{tenant=%q} %d\n", tn, m.tenantComplete[tn])
	}
	for _, tn := range sortedKeys(m.tenantOverloads) {
		fmt.Fprintf(&b, "npserve_tenant_overload_total{tenant=%q} %d\n", tn, m.tenantOverloads[tn])
	}
	for _, td := range tenants {
		fmt.Fprintf(&b, "npserve_tenant_queue_depth{tenant=%q} %d\n", td.Tenant, td.Depth)
	}
	fmt.Fprintf(&b, "npserve_service_time_ewma_ms %.3f\n", m.svcEWMANS/1e6)

	fmt.Fprintf(&b, "npserve_solve_cache_hits %d\n", m.solveCache.Hits)
	fmt.Fprintf(&b, "npserve_solve_cache_misses %d\n", m.solveCache.Misses)
	fmt.Fprintf(&b, "npserve_solve_cache_hit_rate %.4f\n", m.solveCache.HitRate())

	fc, bc := cs.FuncCache, cs.BodyCache
	fmt.Fprintf(&b, "npserve_func_cache_hits %d\n", fc.Hits)
	fmt.Fprintf(&b, "npserve_func_cache_misses %d\n", fc.Misses)
	fmt.Fprintf(&b, "npserve_func_cache_hit_rate %.4f\n", rate(fc.Hits, fc.Misses))
	fmt.Fprintf(&b, "npserve_func_cache_evictions %d\n", fc.Evictions)
	fmt.Fprintf(&b, "npserve_func_cache_discards %d\n", fc.Discards)
	fmt.Fprintf(&b, "npserve_func_cache_entries %d\n", fc.Entries)
	fmt.Fprintf(&b, "npserve_func_cache_idle %d\n", fc.Idle)
	fmt.Fprintf(&b, "npserve_func_cache_bytes %d\n", fc.Bytes)

	fmt.Fprintf(&b, "npserve_body_cache_hits %d\n", bc.Hits)
	fmt.Fprintf(&b, "npserve_body_cache_misses %d\n", bc.Misses)
	fmt.Fprintf(&b, "npserve_body_cache_evictions %d\n", bc.Evictions)
	fmt.Fprintf(&b, "npserve_body_cache_entries %d\n", bc.Entries)

	// The rewrites held in the function cache's records.
	fmt.Fprintf(&b, "npserve_rewrite_cache_hits %d\n", fc.RewriteHits)
	fmt.Fprintf(&b, "npserve_rewrite_cache_reloc_hits %d\n", fc.RewriteRelocHits)
	fmt.Fprintf(&b, "npserve_rewrite_cache_misses %d\n", fc.RewriteMisses)
	fmt.Fprintf(&b, "npserve_rewrite_cache_hit_rate %.4f\n", rate(fc.RewriteHits+fc.RewriteRelocHits, fc.RewriteMisses))
	fmt.Fprintf(&b, "npserve_rewrite_cache_evictions %d\n", fc.RewriteEvictions)
	fmt.Fprintf(&b, "npserve_rewrite_cache_entries %d\n", fc.RewriteEntries)
	fmt.Fprintf(&b, "npserve_rewrite_cache_bytes %d\n", fc.RewriteBytes)

	phases := []struct {
		name string
		ns   int64
	}{
		{"build", m.phases.BuildNS},
		{"estimate_merge", m.phases.MergeNS},
		{"estimate_repair", m.phases.RepairNS},
		{"chain_coloring", m.phases.ColorNS},
		{"rewrite", m.phases.RewriteNS},
		{"rewrite_cached", m.phases.RewriteCachedNS},
	}
	for _, p := range phases {
		fmt.Fprintf(&b, "npserve_engine_phase_ns{phase=%q} %d\n", p.name, p.ns)
	}
	fmt.Fprintf(&b, "npserve_engine_chain_steps %d\n", m.phases.ChainSteps)
	fmt.Fprintf(&b, "npserve_engine_trials %d\n", m.phases.Trials)
	return b.String()
}

// sortedKeys returns the map's keys in ascending order, for
// deterministic rendering.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// trimFloat renders a bucket bound without a trailing ".000000".
func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}
