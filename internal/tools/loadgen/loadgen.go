// Package loadgen is a closed-loop load generator for npserve. Three
// drivers share one worker pool (closedLoop) and one latency summary
// (Latency):
//
//   - Run posts allocation requests, a tunable fraction of which are
//     duplicates drawn from a fixed spec pool, and gates on 5xx,
//     dedup and p99;
//   - RunChaos drives weighted tenants through a fault-injecting proxy
//     with the resilient client and classifies each call's eventual
//     outcome;
//   - RunAdversarial drives cache-hostile progen shapes under
//     heterogeneous hardware profiles and watches the cache tiers.
//
// Each measures client-side latency and folds in the server's own
// /metrics counters at the end. It lives under internal/tools —
// wall-clock and PRNG use is its whole job, which is exactly what the
// detlint clock exemption is for.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"npra/internal/core"
	"npra/internal/core/errs"
)

// The generated request stream's fixed shape: requests cycle through
// 1..maxThreads progen threads under an nreg-register budget, and Run's
// duplicates draw from poolSize fixed specs.
const (
	maxThreads = 3
	nreg       = 64
	poolSize   = 16
)

// Options configures a load run. Zero values take the noted defaults.
type Options struct {
	// URL is the server's base URL (e.g. http://127.0.0.1:8080). Required.
	URL string

	// Concurrency is the number of closed-loop workers (default 4).
	Concurrency int

	// Duration bounds the run in wall time; MaxRequests bounds it in
	// total requests. At least one must be set; whichever trips first
	// ends the run.
	Duration    time.Duration
	MaxRequests int64

	// DupRatio is the probability that a request repeats one of the
	// pool's fixed specs instead of a fresh unique one (default 0,
	// range 0..1).
	DupRatio float64

	// Seed makes the generated request stream reproducible (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Latency is the timing summary every report embeds: the run's wall
// time, its counted requests per second, and the nearest-rank
// percentiles of its timed requests' client-side latency.
type Latency struct {
	DurationS     float64 `json:"duration_s"`
	ThroughputRPS float64 `json:"throughput_rps"`

	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Report is the outcome of one load run.
type Report struct {
	Requests      int64            `json:"requests"`
	ByCode        map[string]int64 `json:"by_code"`
	FiveXX        int64            `json:"five_xx"`
	TransportErrs int64            `json:"transport_errors"`

	Latency

	// SingleflightHitRate and Metrics come from the server's /metrics
	// endpoint, scraped after the run.
	SingleflightHitRate float64            `json:"singleflight_hit_rate"`
	Metrics             map[string]float64 `json:"metrics,omitempty"`
}

// Check validates a report against the serve-e2e acceptance gates:
// no transport errors, at most maxFiveXX server errors, a singleflight
// hit rate of at least minDedup, and a p99 latency of at most maxP99MS
// milliseconds. A negative bound disables its gate.
func (r *Report) Check(maxFiveXX int64, minDedup, maxP99MS float64) error {
	if r.Requests == 0 {
		return errs.Internalf("loadgen: no requests completed")
	}
	if r.TransportErrs > 0 {
		return errs.Internalf("loadgen: %d transport errors", r.TransportErrs)
	}
	if maxFiveXX >= 0 && r.FiveXX > maxFiveXX {
		return errs.Internalf("loadgen: %d responses were 5xx (allowed %d)", r.FiveXX, maxFiveXX)
	}
	if minDedup >= 0 && r.SingleflightHitRate < minDedup {
		return errs.Internalf("loadgen: singleflight hit rate %.4f below the %.4f floor",
			r.SingleflightHitRate, minDedup)
	}
	if maxP99MS >= 0 && r.P99MS > maxP99MS {
		return errs.Internalf("loadgen: p99 latency %.2fms above the %.2fms ceiling",
			r.P99MS, maxP99MS)
	}
	return nil
}

// spec derives request i of a deterministic stream: thread count and
// progen seeds are pure functions of (base seed, i).
func (o *Options) spec(i int64) []byte {
	req := core.WireRequest{NReg: nreg}
	nthreads := 1 + int(i)%maxThreads
	for th := 0; th < nthreads; th++ {
		req.Threads = append(req.Threads, core.WireThread{
			Progen: &core.WireProgen{Seed: o.Seed*1_000_000 + i*10 + int64(th)},
		})
	}
	return marshal(&req)
}

// marshal encodes a wire request. Marshaling a struct of ints and
// strings cannot fail; keep the callers' signatures clean.
func marshal(req *core.WireRequest) []byte {
	blob, err := json.Marshal(req)
	if err != nil {
		return []byte("{}")
	}
	return blob
}

// Run drives the load and returns the report. It stops when ctx is
// done, Duration elapses, or MaxRequests have been issued — whichever
// comes first.
func Run(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	// The duplicate pool: poolSize specs reused across all workers.
	pool := make([][]byte, poolSize)
	for i := range pool {
		pool[i] = opt.spec(int64(i))
	}
	rngs := make([]*rand.Rand, opt.Concurrency)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(opt.Seed + int64(w)*7919))
	}
	return run(ctx, opt, func(w int, ticket int64) []byte {
		if rngs[w].Float64() < opt.DupRatio {
			return pool[rngs[w].Intn(len(pool))]
		}
		// Unique specs start past the pool's index range.
		return opt.spec(poolSize + ticket)
	})
}

// run drives the closed loop with body(w, ticket) as the JSON body
// worker w posts for request ticket, and reports what came back.
func run(ctx context.Context, opt Options, body func(w int, ticket int64) []byte) (*Report, error) {
	if opt.URL == "" {
		return nil, errs.Invalidf("loadgen: no target URL")
	}
	client := newClient()
	rep := &Report{ByCode: make(map[string]int64)}
	timing, err := closedLoop(ctx, opt.Duration, opt.MaxRequests, opt.Concurrency,
		func(ctx context.Context, w int, ticket int64) (int, error) {
			code, _, err := post(ctx, client, opt.URL, body(w, ticket), "")
			return code, err
		},
		func(w int, code int, err error) bool {
			if err != nil {
				rep.TransportErrs++
				return false
			}
			rep.Requests++
			rep.ByCode[strconv.Itoa(code)]++
			if code >= 500 {
				rep.FiveXX++
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	rep.Latency = timing.summary(rep.Requests)

	metrics, err := ScrapeMetrics(client, opt.URL)
	if err != nil {
		return rep, fmt.Errorf("loadgen: scraping metrics after the run: %w", err)
	}
	rep.Metrics = metrics
	rep.SingleflightHitRate = metrics["npserve_singleflight_hit_rate"]
	return rep, nil
}

func newClient() *http.Client { return &http.Client{Timeout: 30 * time.Second} }

// post sends one /allocate request, tagged with tenant as its X-Tenant
// when set, and returns the status and body of the answer. An error
// means no whole answer came back.
func post(ctx context.Context, client *http.Client, url string, body []byte, tenant string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/allocate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, blob, nil
}

// closedLoop is the worker pool under every driver. It runs workers
// closed-loop workers until ctx is done, duration has elapsed (when
// positive) or maxRequests tickets are spent (when positive); at least
// one bound must be set. Worker w sends request ticket with send and
// hands what came back to count, which folds it into the report and
// says whether its latency is summarized. count runs under the loop's
// lock, one request at a time.
//
// A send that fails after ctx is done was cut by the end of the run,
// not failed by the server: the loop drops it, so it counts neither as
// a request nor as an error.
func closedLoop[A any](ctx context.Context, duration time.Duration, maxRequests int64, workers int,
	send func(ctx context.Context, w int, ticket int64) (A, error),
	count func(w int, a A, err error) (timed bool)) (*timing, error) {
	if duration <= 0 && maxRequests <= 0 {
		return nil, errs.Invalidf("loadgen: need a duration or a request budget")
	}
	if duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, duration)
		defer cancel()
	}

	var (
		issued atomic.Int64
		mu     sync.Mutex
		t      timing
		wg     sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				ticket := issued.Add(1)
				if maxRequests > 0 && ticket > maxRequests {
					return
				}
				t0 := time.Now()
				a, err := send(ctx, w, ticket)
				lat := float64(time.Since(t0).Nanoseconds()) / 1e6
				if err != nil && ctx.Err() != nil {
					return
				}
				mu.Lock()
				if count(w, a, err) {
					t.lats = append(t.lats, lat)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	return &t, nil
}

// timing is what closedLoop measured: the run's wall time and the
// latencies (milliseconds) of its timed requests.
type timing struct {
	elapsed time.Duration
	lats    []float64
}

// summary folds the timing into a Latency, with throughput counted
// over n requests.
func (t *timing) summary(n int64) Latency {
	l := Latency{DurationS: t.elapsed.Seconds()}
	all := t.lats
	sort.Float64s(all)
	if len(all) > 0 {
		l.P50MS = percentile(all, 0.50)
		l.P90MS = percentile(all, 0.90)
		l.P99MS = percentile(all, 0.99)
		l.MaxMS = all[len(all)-1]
		sum := 0.0
		for _, v := range all {
			sum += v
		}
		l.MeanMS = sum / float64(len(all))
	}
	if t.elapsed > 0 {
		l.ThroughputRPS = float64(n) / t.elapsed.Seconds()
	}
	return l
}

// percentile returns the p-th percentile (0..1) of sorted values using
// the nearest-rank method.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// ScrapeMetrics fetches url's /metrics endpoint and parses the flat
// "name value" exposition into a map. Labeled series are keyed by their
// full name-with-labels string.
func ScrapeMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errs.Internalf("loadgen: /metrics returned %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(blob), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, nil
}
