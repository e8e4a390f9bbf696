// Command nploadgen drives npserve with a closed-loop request stream
// and reports latency percentiles, status-code counts and the server's
// own singleflight/batching counters. It doubles as the serve-e2e
// acceptance gate: the bound flags turn the report into a pass/fail
// exit code. Every bound is off while negative, its default.
//
// Usage:
//
//	nploadgen -url http://127.0.0.1:8080 -c 8 -duration 10s -dup 0.5
//	nploadgen -inprocess -requests 500 -dup 0.5 -report BENCH_serve.json
//	nploadgen -chaos -inprocess -requests 600 \
//	          -min-eventual 0.999 -fair-tol 0.15 -report BENCH_serve_chaos.json
//	nploadgen -adversarial -inprocess -requests 600 \
//	          -max-reloc-share 0.9 -max-evict-per-req 8 -report BENCH_serve_adv.json
//
// With -inprocess, nploadgen starts an npserve instance inside the
// process (no network listener flakiness) and drives that.
//
// With -chaos, two tenants (heavy and light, six workers each, DRR
// weights 3:1) drive the server through a deterministic fault-injecting
// proxy (TCP resets, latency, truncated and garbled responses, 503
// bursts) using the resilient client from internal/resilience, and the
// report classifies every call's eventual outcome (first-try OK /
// retried-then-OK / hard-failed); -min-eventual, -fair-tol and
// -max-p99-ms gate availability, DRR fairness and tail latency under
// chaos. With -inprocess, a 2ms solve delay and a serialized engine
// make the server the bottleneck so fairness is actually exercised.
//
// With -adversarial, -c workers per hardware profile (ara24, sra64x3,
// ara128; each profile doubles as its workers' X-Tenant) rotate the
// cache-hostile progen shapes — trampoline, boundary, palette,
// nearcollision — and the report classifies outcomes per shape and
// watches the cache tiers' failure modes: the share of rewrite-tier
// lookups answered by relocation (-max-reloc-share), cross-tier
// eviction thrash (-max-evict-per-req), cross-profile result-cache
// aliasing (always fatal), and DRR fairness under profile skew
// (-fair-tol). With -inprocess the server runs with a function cache
// of 8 bodies, each with its rewrites, so those failure modes are
// actually reachable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"npra/internal/faultinject"
	"npra/internal/resilience"
	"npra/internal/serve"
	"npra/internal/tools/loadgen"
)

// config is nploadgen's command line.
type config struct {
	url       string
	inprocess bool
	conc      int
	duration  time.Duration
	requests  int64
	dup       float64
	report    string

	chaos, adversarial bool

	// Gate bounds; a negative bound disables its gate.
	max5xx         int64
	minDedup       float64
	maxP99MS       float64
	minEventual    float64
	fairTol        float64
	maxRelocShare  float64
	maxEvictPerReq float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.url, "url", "", "target npserve base URL (omit with -inprocess)")
	flag.BoolVar(&cfg.inprocess, "inprocess", false, "start an in-process npserve and drive it")
	flag.IntVar(&cfg.conc, "c", 8, "closed-loop worker count (per profile with -adversarial; -chaos runs 6 per tenant)")
	flag.DurationVar(&cfg.duration, "duration", 0, "wall-clock budget (0 = unlimited; set -requests then)")
	flag.Int64Var(&cfg.requests, "requests", 0, "total request budget (0 = unlimited; set -duration then)")
	flag.Float64Var(&cfg.dup, "dup", 0, "duplicate-request ratio, 0..1")
	flag.StringVar(&cfg.report, "report", "", "write the JSON report to this file")
	flag.BoolVar(&cfg.chaos, "chaos", false, "drive the chaos soak: a fault-injecting proxy in front of the server, the resilient client in front of that")
	flag.BoolVar(&cfg.adversarial, "adversarial", false, "drive the adversarial workload: cache-hostile shapes under heterogeneous hardware profiles")
	flag.Int64Var(&cfg.max5xx, "max-5xx", -1, "fail if more than this many 5xx responses")
	flag.Float64Var(&cfg.minDedup, "min-dedup", -1, "fail if the singleflight hit rate is below this")
	flag.Float64Var(&cfg.maxP99MS, "max-p99-ms", -1, "fail if the p99 latency exceeds this many milliseconds")
	flag.Float64Var(&cfg.minEventual, "min-eventual", -1, "fail if the eventual success rate is below this (-chaos)")
	flag.Float64Var(&cfg.fairTol, "fair-tol", -1, "fail if any tenant's completion share deviates more than this from its weight share (-chaos, -adversarial)")
	flag.Float64Var(&cfg.maxRelocShare, "max-reloc-share", -1, "fail if relocation hits exceed this share of all rewrite-tier lookups, exact hits and misses included (-adversarial)")
	flag.Float64Var(&cfg.maxEvictPerReq, "max-evict-per-req", -1, "fail if cross-tier evictions per request exceed this (-adversarial)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "nploadgen:", err)
		os.Exit(1)
	}
}

// run drives the workload cfg selects, prints its JSON report (and
// writes it to cfg.report), and, when any bound is set, checks the
// report against the bounds.
func run(cfg config) error {
	drive := driveLoad
	switch {
	case cfg.adversarial:
		drive = driveAdversarial
	case cfg.chaos:
		drive = driveChaos
	}
	rep, check, err := drive(cfg)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if cfg.report != "" {
		if err := os.WriteFile(cfg.report, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if cfg.max5xx < 0 && cfg.minDedup < 0 && cfg.maxP99MS < 0 && cfg.minEventual < 0 &&
		cfg.fairTol < 0 && cfg.maxRelocShare < 0 && cfg.maxEvictPerReq < 0 {
		return nil
	}
	if err := check(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "nploadgen: checks passed")
	return nil
}

// inProcess starts an npserve with cfg behind a test listener and
// returns its URL and the function that stops both.
func inProcess(cfg serve.Config) (string, func()) {
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	return ts.URL, func() {
		ts.Close()
		s.Close()
	}
}

// driveLoad runs the plain duplicate-ratio stream.
func driveLoad(cfg config) (any, func() error, error) {
	if cfg.inprocess {
		url, stop := inProcess(serve.Config{})
		defer stop()
		cfg.url = url
	}
	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		URL:         cfg.url,
		Concurrency: cfg.conc,
		Duration:    cfg.duration,
		MaxRequests: cfg.requests,
		DupRatio:    cfg.dup,
	})
	return rep, func() error { return rep.Check(cfg.max5xx, cfg.minDedup, cfg.maxP99MS) }, err
}

// advFuncCacheEntries is the in-process adversarial server's function
// cache bound: tiny on purpose, so the eviction-thrash and
// relocation-storm gates measure the failure modes they exist for.
const advFuncCacheEntries = 8

// driveAdversarial runs the cache-hostile workload. Every profile's
// tenant keeps the default DRR weight of 1, so the fairness gate
// watches admission under profile skew.
func driveAdversarial(cfg config) (any, func() error, error) {
	if cfg.inprocess {
		url, stop := inProcess(serve.Config{FuncCacheEntries: advFuncCacheEntries})
		defer stop()
		cfg.url = url
	}
	rep, err := loadgen.RunAdversarial(context.Background(), loadgen.AdvOptions{
		URL:               cfg.url,
		WorkersPerProfile: cfg.conc,
		Duration:          cfg.duration,
		MaxRequests:       cfg.requests,
	})
	return rep, func() error {
		return rep.Check(cfg.max5xx, cfg.maxRelocShare, cfg.maxEvictPerReq, cfg.maxP99MS, cfg.fairTol)
	}, err
}

// The chaos soak's fixed setup: two tenants at 3:1 DRR weights, the
// proxy's fault rates, the resilient client's retry policy, and the
// per-Solve delay that keeps an in-process server backlogged.
var (
	chaosWeights = map[string]int{"heavy": 3, "light": 1}
	chaosFaults  = faultinject.ChaosConfig{
		Seed:         1,
		ResetRate:    0.03,
		LatencyRate:  0.10,
		Latency:      3 * time.Millisecond,
		TruncateRate: 0.03,
		GarbleRate:   0.03,
		BurstEvery:   40,
		BurstLen:     2,
	}
	chaosClient = resilience.Config{
		MaxAttempts:   8,
		BaseBackoff:   10 * time.Millisecond,
		MaxBackoff:    200 * time.Millisecond,
		RetryAfterCap: 250 * time.Millisecond,
		HedgeAfter:    500 * time.Millisecond,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 10,
			Cooldown:         100 * time.Millisecond,
		},
	}
)

const chaosSolveDelay = 2 * time.Millisecond

// driveChaos runs the chaos soak: a fault-injecting proxy in front of
// the server (started in-process with -inprocess, or fronting -url),
// the resilient client in front of the proxy, and the two tenants in
// closed loops.
func driveChaos(cfg config) (any, func() error, error) {
	if cfg.inprocess {
		// The soak measures admission fairness, so the server must be the
		// bottleneck: one engine worker, no batching, and an injected
		// per-Solve delay (progen jobs finish in ~0.1ms otherwise — the
		// queue would never backlog and DRR would have nothing to
		// schedule). Every completion is then one DRR grant.
		faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{
			Mode: faultinject.Delay, Delay: chaosSolveDelay})
		defer faultinject.Reset()
		url, stop := inProcess(serve.Config{Workers: 1, MaxBatch: 1, TenantWeights: chaosWeights})
		defer stop()
		cfg.url = url
	}
	if cfg.url == "" {
		return nil, nil, fmt.Errorf("chaos soak: need -url or -inprocess")
	}

	proxy := faultinject.NewChaosProxy(cfg.url, chaosFaults)
	front := httptest.NewServer(proxy)
	defer front.Close()

	rep, err := loadgen.RunChaos(context.Background(), loadgen.ChaosOptions{
		URL:           front.URL,
		DirectURL:     cfg.url, // metrics scrape bypasses the chaos path
		TenantWeights: chaosWeights,
		Duration:      cfg.duration,
		MaxRequests:   cfg.requests,
		Resilience:    chaosClient,
	})
	if rep != nil {
		st := proxy.Stats()
		rep.ChaosFired = make(map[string]int64, len(st.Fired))
		for site, n := range st.Fired {
			rep.ChaosFired[string(site)] = n
		}
	}
	return rep, func() error { return rep.Check(cfg.minEventual, cfg.maxP99MS, cfg.fairTol) }, err
}
