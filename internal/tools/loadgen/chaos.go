package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"npra/internal/core"
	"npra/internal/core/errs"
	"npra/internal/resilience"
)

// ChaosOptions configures a chaos soak: multiple tenants drive a
// chaos proxy (see faultinject.ChaosProxy) in closed loops through the
// resilient client, and the report classifies every call's eventual
// outcome. Zero values take the noted defaults.
type ChaosOptions struct {
	// URL is the chaos proxy's base URL — the faulty path. Required.
	URL string

	// DirectURL is the backend's own base URL, used for the post-run
	// /metrics scrape (which must not be garbled); default URL.
	DirectURL string

	// TenantWorkers maps each tenant to its closed-loop worker count
	// (default {"heavy": 6, "light": 6}).
	TenantWorkers map[string]int

	// TenantWeights is the server-side DRR weight per tenant, used by
	// the fairness gate to compute expected completion shares (default:
	// weight 1 each). It must mirror the server's configuration.
	TenantWeights map[string]int

	// Duration bounds the run in wall time; MaxRequests bounds it in
	// calls. At least one must be set.
	Duration    time.Duration
	MaxRequests int64

	// Resilience parameterizes the shared resilient client; zero fields
	// take that package's defaults. CheckBody is overridden to validate
	// allocation response bodies (catching garbled payloads).
	Resilience resilience.Config
}

// chaosCallTimeout bounds one chaos call end to end, retries included.
const chaosCallTimeout = 15 * time.Second

// ChaosReport classifies a chaos soak's outcomes. The three terminal
// classes partition Calls: FirstTryOK + RetriedOK + HardFailed.
type ChaosReport struct {
	Calls      int64 `json:"calls"`
	FirstTryOK int64 `json:"first_try_ok"`
	RetriedOK  int64 `json:"retried_ok"`  // succeeded after >=1 retry round
	HardFailed int64 `json:"hard_failed"` // no terminal success (budget or deadline exhausted)

	// ShedResponses counts 429s observed across all attempts (requests
	// the server refused under its admission policy, whether or not the
	// call eventually succeeded).
	ShedResponses int64 `json:"shed_responses"`

	EventualSuccessRate float64 `json:"eventual_success_rate"`

	// RetriesByTrigger breaks retries down by what caused them;
	// BadRetries is the subset triggered by 400/422 — the client
	// promises never to retry those, so it must be 0.
	RetriesByTrigger map[string]int64 `json:"retries_by_trigger"`
	BadRetries       int64            `json:"bad_retries"`

	Hedges         int64 `json:"hedges"`
	BreakerOpens   int64 `json:"breaker_opens"`
	BreakerRejects int64 `json:"breaker_rejects"`

	// TenantOK counts eventual successes per tenant; FairnessDev is the
	// largest relative deviation of any tenant's completion share from
	// its weight share (0 = perfectly weight-proportional).
	TenantOK    map[string]int64 `json:"tenant_ok"`
	FairnessDev float64          `json:"fairness_dev"`

	// Latency summarizes per-call eventual latency (first attempt to
	// terminal answer) over the successful calls.
	Latency

	// ChaosFired counts faults the proxy injected, keyed by site name —
	// filled in by the caller that owns the proxy.
	ChaosFired map[string]int64 `json:"chaos_fired,omitempty"`

	// Metrics is the backend's /metrics scrape (via DirectURL).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Check validates the soak against the chaos acceptance gates:
// eventual success rate at least minEventual, zero retries of 400/422
// (always enforced), p99 at most maxP99MS, and every tenant's
// completion share within fairTol of its weight share. A negative
// bound disables its gate.
func (r *ChaosReport) Check(minEventual, maxP99MS, fairTol float64) error {
	if r.Calls == 0 {
		return errs.Internalf("chaos: no calls completed")
	}
	if minEventual >= 0 && r.EventualSuccessRate < minEventual {
		return errs.Internalf("chaos: eventual success rate %.5f below the %.5f floor (%d hard failures)",
			r.EventualSuccessRate, minEventual, r.HardFailed)
	}
	if r.BadRetries > 0 {
		return errs.Internalf("chaos: %d retries were triggered by 400/422 — those must never be retried", r.BadRetries)
	}
	if maxP99MS >= 0 && r.P99MS > maxP99MS {
		return errs.Internalf("chaos: p99 latency %.2fms above the %.2fms ceiling", r.P99MS, maxP99MS)
	}
	if fairTol >= 0 && r.FairnessDev > fairTol {
		return errs.Internalf("chaos: tenant completion share deviates %.4f from the weight share (allowed %.4f): %v",
			r.FairnessDev, fairTol, r.TenantOK)
	}
	return nil
}

// chaosSpec derives one tenant's request i: a fresh unique workload per
// call (tenant-salted so tenants never collide in the dedup layer, and
// fairness measures real engine work).
func chaosSpec(tenantIdx int, i int64) []byte {
	req := core.WireRequest{NReg: nreg}
	nthreads := 1 + int(i)%maxThreads
	for th := 0; th < nthreads; th++ {
		req.Threads = append(req.Threads, core.WireThread{
			Progen: &core.WireProgen{
				Seed: 1_000_000_000 + int64(tenantIdx)*100_000_000 + i*10 + int64(th),
			},
		})
	}
	return marshal(&req)
}

// checkAllocBody validates a 2xx /allocate response body: it must be
// the JSON allocation envelope. Garbled payloads that are no longer
// valid JSON (or lost their required fields) are caught here and
// retried; corruption inside a still-valid JSON value is beyond a
// schema check and out of scope.
func checkAllocBody(status int, body []byte) error {
	var resp struct {
		NReg    int             `json:"nreg"`
		Threads json.RawMessage `json:"threads"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("loadgen: undecodable allocation body: %w", err)
	}
	if resp.NReg <= 0 || len(resp.Threads) == 0 {
		return errs.Internalf("loadgen: allocation body missing nreg/threads")
	}
	return nil
}

// RunChaos drives the chaos soak and classifies every call. It stops
// when ctx is done, Duration elapses, or MaxRequests calls have been
// issued — whichever comes first.
func RunChaos(ctx context.Context, opt ChaosOptions) (*ChaosReport, error) {
	if opt.URL == "" {
		return nil, errs.Invalidf("loadgen: no chaos target URL")
	}
	if opt.DirectURL == "" {
		opt.DirectURL = opt.URL
	}
	if len(opt.TenantWorkers) == 0 {
		opt.TenantWorkers = map[string]int{"heavy": 6, "light": 6}
	}

	rcfg := opt.Resilience
	rcfg.CheckBody = checkAllocBody
	if rcfg.Seed == 0 {
		rcfg.Seed = 1
	}
	client := resilience.New(rcfg)

	tenants := make([]string, 0, len(opt.TenantWorkers))
	for t := range opt.TenantWorkers {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	// Workers are numbered tenant by tenant; owner[w] is w's tenant.
	var owner []int
	hdrs := make([]http.Header, len(tenants))
	for ti, tenant := range tenants {
		hdrs[ti] = http.Header{}
		hdrs[ti].Set("X-Tenant", tenant)
		for k := 0; k < opt.TenantWorkers[tenant]; k++ {
			owner = append(owner, ti)
		}
	}

	rep := &ChaosReport{TenantOK: make(map[string]int64, len(tenants))}
	for _, t := range tenants {
		rep.TenantOK[t] = 0
	}
	timing, err := closedLoop(ctx, opt.Duration, opt.MaxRequests, len(owner),
		func(ctx context.Context, w int, ticket int64) (int, error) {
			ti := owner[w]
			cctx, cancel := context.WithTimeout(ctx, chaosCallTimeout)
			defer cancel()
			res, err := client.Post(cctx, opt.URL+"/allocate", "application/json", chaosSpec(ti, ticket), hdrs[ti])
			if err != nil {
				return 0, err // exhausted budget or dead ctx
			}
			if res.Status != http.StatusOK {
				return 0, errs.Internalf("loadgen: terminal status %d", res.Status)
			}
			return res.Retries, nil
		},
		func(w int, retries int, err error) bool {
			rep.Calls++
			switch {
			case err != nil:
				rep.HardFailed++
				return false
			case retries == 0:
				rep.FirstTryOK++
			default:
				rep.RetriedOK++
			}
			rep.TenantOK[tenants[owner[w]]]++
			return true
		})
	if err != nil {
		return nil, err
	}
	rep.Latency = timing.summary(rep.Calls)
	if rep.Calls > 0 {
		rep.EventualSuccessRate = float64(rep.FirstTryOK+rep.RetriedOK) / float64(rep.Calls)
	}

	cst := client.Stats()
	rep.RetriesByTrigger = cst.RetriesByTrigger
	rep.ShedResponses = cst.RetriesByTrigger["429"]
	rep.BadRetries = cst.RetriesByTrigger["400"] + cst.RetriesByTrigger["422"]
	rep.Hedges = cst.Hedges
	rep.BreakerRejects = cst.BreakerRejects
	bst := client.BreakerFor(opt.URL).Stats()
	rep.BreakerOpens = bst.Opens
	rep.FairnessDev = fairnessDev(rep.TenantOK, opt.TenantWeights)

	metrics, err := ScrapeMetrics(&http.Client{Timeout: 10 * time.Second}, opt.DirectURL)
	if err != nil {
		return rep, fmt.Errorf("loadgen: scraping backend metrics after the soak: %w", err)
	}
	rep.Metrics = metrics
	return rep, nil
}

// fairnessDev returns the largest relative deviation of any tenant's
// completion share from its weight share (weights default to 1).
func fairnessDev(ok map[string]int64, weights map[string]int) float64 {
	if len(ok) < 2 {
		return 0
	}
	names := make([]string, 0, len(ok))
	for t := range ok {
		names = append(names, t)
	}
	sort.Strings(names)
	var totalOK int64
	totalW := 0
	for _, t := range names {
		totalOK += ok[t]
		w := weights[t]
		if w <= 0 {
			w = 1
		}
		totalW += w
	}
	if totalOK == 0 || totalW == 0 {
		return 0
	}
	worst := 0.0
	for _, t := range names {
		w := weights[t]
		if w <= 0 {
			w = 1
		}
		share := float64(ok[t]) / float64(totalOK)
		wshare := float64(w) / float64(totalW)
		dev := (share - wshare) / wshare
		if dev < 0 {
			dev = -dev
		}
		if dev > worst {
			worst = dev
		}
	}
	return worst
}
