// Command nploadgen drives npserve with a closed-loop request stream
// and reports latency percentiles, status-code counts and the server's
// own singleflight/batching counters. It doubles as the serve-e2e
// acceptance gate: -max-5xx and -min-dedup turn the report into a
// pass/fail exit code.
//
// Usage:
//
//	nploadgen -url http://127.0.0.1:8080 -c 8 -duration 10s -dup 0.5
//	nploadgen -inprocess -requests 500 -dup 0.5 -report BENCH_serve.json
//	nploadgen -inprocess -kernel-mix -requests 200 \
//	          -min-funccache-hit 0.9 -min-p99-speedup 2 -report BENCH_serve_mix.json
//	nploadgen -chaos -inprocess -requests 600 \
//	          -min-eventual 0.999 -fair-tol 0.15 -report BENCH_serve_chaos.json
//	nploadgen -adversarial -inprocess -requests 600 \
//	          -max-reloc-share 0.9 -max-evict-per-req 8 -report BENCH_serve_adv.json
//
// With -inprocess, nploadgen starts an npserve instance inside the
// process (no network listener flakiness) and drives that.
//
// With -kernel-mix, the stream is composed from a shared pool of
// heavyweight kernels with varying thread multiplicities (the "millions
// of users, same kernels" shape) and the report adds the function-cache
// hit rate of the warm phase. Combined with -inprocess, a second
// baseline server with function/body caching disabled is driven with
// the identical stream first, so the report's p99_speedup isolates what
// function-granular caching buys; -min-funccache-hit and
// -min-p99-speedup turn both into pass/fail gates.
//
// With -chaos, weighted tenants drive the server through a
// deterministic fault-injecting proxy (TCP resets, latency, truncated
// and garbled responses, 503 bursts) using the resilient client from
// internal/resilience, and the report classifies every call's eventual
// outcome (first-try OK / retried-then-OK / shed / hard-failed);
// -min-eventual, -fair-tol and -max-p99-ms gate availability, DRR
// fairness and tail latency under chaos. With -inprocess, a solve
// delay (-chaos-solve-delay) and a serialized engine make the server
// the bottleneck so fairness is actually exercised.
//
// With -adversarial, workers pinned to heterogeneous hardware profiles
// (-adv-profiles, each profile doubling as its X-Tenant) rotate the
// cache-hostile progen shapes — trampoline, boundary, palette,
// nearcollision — and the report classifies outcomes per shape and
// watches the cache tiers' failure modes: relocation-storm share
// (-max-reloc-share), cross-tier eviction thrash (-max-evict-per-req),
// cross-profile result-cache aliasing (always fatal), and DRR fairness
// under profile skew (-fair-tol, with -adv-solve-delay to make the
// server the bottleneck). With -inprocess the server runs with a tiny
// function cache (-funccache-entries bodies, each with its rewrites) so
// those failure modes are actually reachable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"npra/internal/faultinject"
	"npra/internal/resilience"
	"npra/internal/serve"
	"npra/internal/tools/loadgen"
)

func main() {
	var (
		url       = flag.String("url", "", "target npserve base URL (omit with -inprocess)")
		inprocess = flag.Bool("inprocess", false, "start an in-process npserve and drive it")
		conc      = flag.Int("c", 8, "closed-loop worker count")
		duration  = flag.Duration("duration", 0, "wall-clock budget (0 = unlimited; set -requests then)")
		requests  = flag.Int64("requests", 0, "total request budget (0 = unlimited; set -duration then)")
		dup       = flag.Float64("dup", 0, "duplicate-request ratio, 0..1")
		pool      = flag.Int("pool", 16, "distinct specs the duplicate draws come from")
		threads   = flag.Int("threads", 3, "max threads per generated request")
		nreg      = flag.Int("nreg", 64, "register budget per request")
		timeoutMS = flag.Int64("timeout-ms", 0, "per-request timeout forwarded to the server")
		seed      = flag.Int64("seed", 1, "request-stream seed")
		reportTo  = flag.String("report", "", "write the JSON report to this file")
		max5xx    = flag.Int64("max-5xx", -1, "fail if more than this many 5xx responses (-1 disables)")
		minDedup  = flag.Float64("min-dedup", -1, "fail if the singleflight hit rate is below this (-1 disables)")
		maxP99    = flag.Float64("max-p99-ms", 0, "fail if the p99 latency exceeds this many milliseconds (0 disables)")
		jobs      = flag.Int("j", runtime.GOMAXPROCS(0), "engine workers for -inprocess")

		kernelMix  = flag.Bool("kernel-mix", false, "drive the kernel-mix workload (shared kernel pool, varying thread multiplicities)")
		kernels    = flag.Int("kernels", 8, "kernel pool size for -kernel-mix")
		minFuncHit = flag.Float64("min-funccache-hit", -1, "fail if the warm-phase function-cache hit rate is below this (-1 disables; -kernel-mix only)")
		minSpeedup = flag.Float64("min-p99-speedup", 0, "fail if warm p99 does not beat the cold baseline by this factor (0 disables; -kernel-mix -inprocess only)")
		maxRWShare = flag.Float64("max-rewrite-share", 0, "fail if the warm phase's rewrite+rewrite_cached share of engine time exceeds this (0 disables; -kernel-mix only)")

		adversarial  = flag.Bool("adversarial", false, "drive the adversarial workload: cache-hostile shapes under heterogeneous hardware profiles")
		advProfiles  = flag.String("adv-profiles", "ara24=24,sra64=64x3,ara128=128", "hardware profiles as name=nreg[xnthd],... (each profile is also its workers' X-Tenant)")
		advHotRatio  = flag.Float64("hot-ratio", 0.5, "fraction of adversarial requests drawn from the hot spec pool")
		advSolveDly  = flag.Duration("adv-solve-delay", 0, "per-Solve engine delay armed for -inprocess adversarial runs; >0 also serializes the engine so DRR fairness across profiles is observable")
		fcEntries    = flag.Int("funccache-entries", 8, "function-cache body bound for the -inprocess adversarial server (negative disables the tier and its rewrites)")
		maxRelocShre = flag.Float64("max-reloc-share", 0, "fail if relocation hits exceed this share of rewrite-tier lookups (0 disables; -adversarial only)")
		maxEvictReq  = flag.Float64("max-evict-per-req", 0, "fail if cross-tier evictions per request exceed this (0 disables; -adversarial only)")

		chaos         = flag.Bool("chaos", false, "drive the chaos soak: a fault-injecting proxy in front of the server, the resilient client in front of that")
		chaosReset    = flag.Float64("chaos-reset", 0.03, "per-request TCP-reset probability")
		chaosLatRate  = flag.Float64("chaos-latency-rate", 0.10, "per-request injected-latency probability")
		chaosLatency  = flag.Duration("chaos-latency", 3*time.Millisecond, "injected latency")
		chaosTruncate = flag.Float64("chaos-truncate", 0.03, "per-request truncated-response probability")
		chaosGarble   = flag.Float64("chaos-garble", 0.03, "per-request garbled-response probability")
		chaosBurstEv  = flag.Int("chaos-burst-every", 40, "5xx burst cadence in requests (0 disables bursts)")
		chaosBurstLen = flag.Int("chaos-burst-len", 2, "consecutive 503s per burst")
		chaosSolveDly = flag.Duration("chaos-solve-delay", 2*time.Millisecond, "per-Solve engine delay armed for -inprocess soaks, keeping the server backlogged so DRR fairness is observable (0 disables)")
		tenants       = flag.String("tenants", "heavy=6,light=6", "closed-loop workers per tenant as tenant=workers,...")
		tenantWeights = flag.String("tenant-weights", "heavy=3,light=1", "server-side DRR weights as tenant=weight,... (-inprocess configures the server; either way the fairness gate expects them)")
		lowFrac       = flag.Float64("low-frac", 0, "fraction of chaos requests marked priority \"low\"")
		minEventual   = flag.Float64("min-eventual", -1, "fail if the eventual success rate is below this (-1 disables)")
		fairTol       = flag.Float64("fair-tol", 0, "fail if any tenant's completion share deviates more than this from its weight share (0 disables)")
	)
	flag.Parse()
	var err error
	if *adversarial {
		err = runAdversarial(*url, *inprocess, *conc, *duration, *requests, *advProfiles,
			*advHotRatio, *timeoutMS, *seed, *reportTo, *advSolveDly,
			*fcEntries, *jobs,
			*max5xx, *maxRelocShre, *maxEvictReq, *maxP99, *fairTol)
	} else if *chaos {
		err = runChaos(*url, *inprocess, *duration, *requests, *threads, *nreg,
			*timeoutMS, *seed, *reportTo, *tenants, *tenantWeights, *lowFrac, *chaosSolveDly,
			faultinject.ChaosConfig{
				Seed:         uint64(*seed),
				ResetRate:    *chaosReset,
				LatencyRate:  *chaosLatRate,
				Latency:      *chaosLatency,
				TruncateRate: *chaosTruncate,
				GarbleRate:   *chaosGarble,
				BurstEvery:   *chaosBurstEv,
				BurstLen:     *chaosBurstLen,
			},
			*minEventual, *maxP99, *fairTol)
	} else if *kernelMix {
		// The mix has its own NReg default (128: its kernels are heavier
		// than plain loadgen's); only forward -nreg when the user set it.
		mixNReg := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "nreg" {
				mixNReg = *nreg
			}
		})
		err = runMix(*url, *inprocess, *conc, *requests, *kernels, *threads, mixNReg,
			*timeoutMS, *seed, *reportTo, *max5xx, *minFuncHit, *minSpeedup, *maxRWShare, *jobs)
	} else {
		err = run(*url, *inprocess, *conc, *duration, *requests, *dup, *pool, *threads,
			*nreg, *timeoutMS, *seed, *reportTo, *max5xx, *minDedup, *maxP99, *jobs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nploadgen:", err)
		os.Exit(1)
	}
}

// runMix drives the kernel-mix workload. With inprocess set it starts
// two servers — a baseline with function/body caching disabled and the
// measured one with defaults — and drives the identical stream at both.
func runMix(url string, inprocess bool, conc int, requests int64, kernels, threads, nreg int,
	timeoutMS, seed int64, reportTo string, max5xx int64, minFuncHit, minSpeedup, maxRWShare float64, jobs int) error {
	opt := loadgen.MixOptions{
		URL:         url,
		Concurrency: conc,
		Requests:    requests,
		Kernels:     kernels,
		Threads:     threads,
		NReg:        nreg,
		TimeoutMS:   timeoutMS,
		Seed:        seed,
	}
	if inprocess {
		baseline := serve.New(serve.Config{Workers: jobs, FuncCacheEntries: -1, BodyCacheEntries: -1})
		bts := httptest.NewServer(baseline.Handler())
		warm := serve.New(serve.Config{Workers: jobs})
		wts := httptest.NewServer(warm.Handler())
		defer func() {
			bts.Close()
			wts.Close()
			baseline.Close()
			warm.Close()
		}()
		opt.URL = wts.URL
		opt.BaselineURL = bts.URL
	}

	rep, err := loadgen.RunMix(context.Background(), opt)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if reportTo != "" {
		if err := os.WriteFile(reportTo, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}

	if max5xx >= 0 || minFuncHit >= 0 || minSpeedup > 0 || maxRWShare > 0 {
		effMax := max5xx
		if effMax < 0 {
			effMax = requests
		}
		if err := rep.Check(effMax, minFuncHit, minSpeedup, maxRWShare); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nploadgen: mix checks passed (funccache hit rate %.4f >= %.4f, p99 speedup %.2fx >= %.2fx, rewrite share %.4f <= %.4f)\n",
			rep.FuncCacheHitRate, minFuncHit, rep.P99Speedup, minSpeedup, rep.WarmRewriteShare, maxRWShare)
	}
	return nil
}

func run(url string, inprocess bool, conc int, duration time.Duration, requests int64,
	dup float64, pool, threads, nreg int, timeoutMS, seed int64,
	reportTo string, max5xx int64, minDedup, maxP99 float64, jobs int) error {
	if inprocess {
		s := serve.New(serve.Config{Workers: jobs})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		url = ts.URL
	}

	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		URL:         url,
		Concurrency: conc,
		Duration:    duration,
		MaxRequests: requests,
		DupRatio:    dup,
		PoolSize:    pool,
		Threads:     threads,
		NReg:        nreg,
		TimeoutMS:   timeoutMS,
		Seed:        seed,
	})
	if err != nil {
		return err
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if reportTo != "" {
		if err := os.WriteFile(reportTo, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}

	if max5xx >= 0 || minDedup >= 0 || maxP99 > 0 {
		effMax := max5xx
		if effMax < 0 {
			effMax = rep.Requests // 5xx gate disabled
		}
		if err := rep.Check(effMax, minDedup, maxP99); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nploadgen: checks passed (5xx %d <= %d, dedup %.4f >= %.4f, p99 %.2fms)\n",
			rep.FiveXX, effMax, rep.SingleflightHitRate, minDedup, rep.P99MS)
	}
	return nil
}

// runAdversarial drives the cache-hostile workload: workers pinned to
// heterogeneous hardware profiles rotate the adversarial generator
// families against one server. With -inprocess the server runs with
// a deliberately tiny function cache (the -funccache-entries bound, which
// also bounds the rewrites its records hold) so the eviction-thrash and
// relocation-storm gates measure the failure modes they exist for, and
// each profile gets an equal DRR weight so the fairness gate watches
// admission under profile skew.
func runAdversarial(url string, inprocess bool, conc int, duration time.Duration, requests int64,
	profileSpec string, hotRatio float64, timeoutMS, seed int64, reportTo string,
	solveDelay time.Duration, fcEntries, jobs int,
	max5xx int64, maxRelocShare, maxEvictPerReq, maxP99, fairTol float64) error {

	profiles, err := loadgen.ParseProfiles(profileSpec)
	if err != nil {
		return fmt.Errorf("parsing -adv-profiles: %w", err)
	}

	if inprocess {
		weights := make(map[string]int, len(profiles))
		for _, p := range profiles {
			weights[p.Name] = 1
		}
		cfg := serve.Config{
			Workers:          jobs,
			FuncCacheEntries: fcEntries,
			TenantWeights:    weights,
		}
		if solveDelay > 0 {
			// Fairness is only observable with a backlog: serialize the
			// engine and slow each Solve so DRR has something to schedule.
			faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{
				Mode: faultinject.Delay, Delay: solveDelay})
			defer faultinject.Reset()
			cfg.Workers, cfg.MaxBatch = 1, 1
		}
		s := serve.New(cfg)
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		url = ts.URL
	}
	if url == "" {
		return fmt.Errorf("adversarial run: need -url or -inprocess")
	}

	rep, err := loadgen.RunAdversarial(context.Background(), loadgen.AdvOptions{
		URL:               url,
		WorkersPerProfile: conc,
		Duration:          duration,
		MaxRequests:       requests,
		Profiles:          profiles,
		HotRatio:          hotRatio,
		TimeoutMS:         timeoutMS,
		Seed:              seed,
	})
	if err != nil {
		return err
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if reportTo != "" {
		if err := os.WriteFile(reportTo, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}

	if max5xx >= 0 || maxRelocShare > 0 || maxEvictPerReq > 0 || maxP99 > 0 || fairTol > 0 {
		if err := rep.Check(max5xx, maxRelocShare, maxEvictPerReq, maxP99, fairTol); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nploadgen: adversarial checks passed (alias mismatches 0, reloc share %.4f <= %.4f, evict/req %.2f <= %.2f, fairness dev %.4f, p99 %.2fms)\n",
			rep.RelocShare, maxRelocShare, rep.EvictionsPerReq, maxEvictPerReq, rep.FairnessDev, rep.P99MS)
	}
	return nil
}

// runChaos drives the chaos soak: a fault-injecting proxy in front of
// the server (started in-process with -inprocess, or fronting -url),
// the resilient client in front of the proxy, and multiple tenants in
// closed loops. The report classifies every call as first-try OK,
// retried-then-OK, or hard-failed, and the gates turn eventual
// availability and weighted fairness into a pass/fail exit code.
func runChaos(url string, inprocess bool, duration time.Duration, requests int64,
	threads, nreg int, timeoutMS, seed int64, reportTo, tenantSpec, weightSpec string,
	lowFrac float64, solveDelay time.Duration, chaosCfg faultinject.ChaosConfig,
	minEventual, maxP99, fairTol float64) error {

	workers, err := serve.ParseTenantWeights(tenantSpec)
	if err != nil {
		return fmt.Errorf("parsing -tenants: %w", err)
	}
	weights, err := serve.ParseTenantWeights(weightSpec)
	if err != nil {
		return fmt.Errorf("parsing -tenant-weights: %w", err)
	}

	if inprocess {
		// The soak measures admission fairness, so the server must be the
		// bottleneck: one engine worker, no batching, and an injected
		// per-Solve delay (progen jobs finish in ~0.1ms otherwise — the
		// queue would never backlog and DRR would have nothing to
		// schedule). Every completion is then one DRR grant.
		if solveDelay > 0 {
			faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{
				Mode: faultinject.Delay, Delay: solveDelay})
			defer faultinject.Reset()
		}
		s := serve.New(serve.Config{Workers: 1, MaxBatch: 1, TenantWeights: weights})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		url = ts.URL
	}
	if url == "" {
		return fmt.Errorf("chaos soak: need -url or -inprocess")
	}

	proxy := faultinject.NewChaosProxy(url, chaosCfg)
	front := httptest.NewServer(proxy)
	defer front.Close()

	rep, err := loadgen.RunChaos(context.Background(), loadgen.ChaosOptions{
		URL:           front.URL,
		DirectURL:     url, // metrics scrape bypasses the chaos path
		TenantWorkers: workers,
		TenantWeights: weights,
		Duration:      duration,
		MaxRequests:   requests,
		Threads:       threads,
		NReg:          nreg,
		TimeoutMS:     timeoutMS,
		Seed:          seed,
		LowFrac:       lowFrac,
		Resilience: resilience.Config{
			MaxAttempts:   8,
			BaseBackoff:   10 * time.Millisecond,
			MaxBackoff:    200 * time.Millisecond,
			RetryAfterCap: 250 * time.Millisecond,
			HedgeAfter:    500 * time.Millisecond,
			Breaker: resilience.BreakerConfig{
				FailureThreshold: 10,
				Cooldown:         100 * time.Millisecond,
			},
		},
	})
	if rep != nil {
		st := proxy.Stats()
		rep.ChaosFired = make(map[string]int64, len(st.Fired))
		for site, n := range st.Fired {
			rep.ChaosFired[string(site)] = n
		}
	}
	if err != nil {
		return err
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if reportTo != "" {
		if err := os.WriteFile(reportTo, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}

	if minEventual >= 0 || maxP99 > 0 || fairTol > 0 {
		effMin := minEventual
		if effMin < 0 {
			effMin = 0
		}
		if err := rep.Check(effMin, maxP99, fairTol); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nploadgen: chaos checks passed (eventual %.5f >= %.5f, bad retries %d, fairness dev %.4f <= %.4f, p99 %.2fms)\n",
			rep.EventualSuccessRate, effMin, rep.BadRetries, rep.FairnessDev, fairTol, rep.P99MS)
	}
	return nil
}
