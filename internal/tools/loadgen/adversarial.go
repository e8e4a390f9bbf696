package loadgen

// The adversarial workload: heterogeneous hardware profiles drive
// cache-hostile progen shapes against one server, and the report
// watches the failure modes the friendly kernel mix never reaches —
// relocation storms in the rewrite tier, eviction thrash when the
// caches are squeezed, result-cache aliasing across register files, and
// admission fairness when profiles skew the work size.
//
// Each worker is pinned to one hardware profile (its X-Tenant), so the
// profiles form closed loops exactly like chaos tenants; shapes cycle
// per request. A tunable fraction of each worker's requests repeats a
// small hot pool — without repeats the tiny caches would only ever
// miss, and the relocation/eviction counters would measure nothing.

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

// HWProfile is one hardware profile in the heterogeneous stream: a
// register-file size and, when NThd is set, the symmetric (SRA) mode
// with that thread count.
type HWProfile struct {
	Name string `json:"name"`
	NReg int    `json:"nreg"`
	NThd int    `json:"nthd,omitempty"` // >0: mode "sra" with this thread count
}

// ParseProfiles parses a profile list of the form
// "name=nreg,name=nregxnthd,..." (e.g. "small=16,sym=32x4,large=128").
func ParseProfiles(spec string) ([]HWProfile, error) {
	var out []HWProfile
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, errs.Invalidf("loadgen: profile %q: want name=nreg[xnthd]", part)
		}
		p := HWProfile{Name: name}
		nregStr, nthdStr, hasThd := strings.Cut(val, "x")
		n, err := strconv.Atoi(nregStr)
		if err != nil || n < 1 {
			return nil, errs.Invalidf("loadgen: profile %q: bad nreg %q", part, nregStr)
		}
		p.NReg = n
		if hasThd {
			th, err := strconv.Atoi(nthdStr)
			if err != nil || th < 1 {
				return nil, errs.Invalidf("loadgen: profile %q: bad nthd %q", part, nthdStr)
			}
			p.NThd = th
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, errs.Invalidf("loadgen: empty profile list %q", spec)
	}
	return out, nil
}

// AdvShapes is the default adversarial shape rotation; it must match
// the generator families progen accepts on the wire.
var AdvShapes = []string{"trampoline", "boundary", "palette", "nearcollision"}

// AdvOptions configures an adversarial run. Zero values take the noted
// defaults.
type AdvOptions struct {
	// URL is the server's base URL. Required.
	URL string

	// WorkersPerProfile is the closed-loop worker count pinned to each
	// profile (default 2).
	WorkersPerProfile int

	// Duration bounds the run in wall time; MaxRequests bounds it in
	// total requests. At least one must be set.
	Duration    time.Duration
	MaxRequests int64

	// Profiles is the heterogeneous hardware mix; each profile is also
	// the X-Tenant its workers send, so the server's DRR admission sees
	// one tenant per profile. Default: ara24 / sra64x3 / ara128.
	Profiles []HWProfile

	// Shapes rotates the adversarial generator families (default
	// AdvShapes).
	Shapes []string

	// HotRatio is the probability a request repeats one of PoolSize hot
	// specs of its (shape, profile) slot instead of a fresh unique one
	// (default 0.5). Hot repeats are what give the cache tiers a reuse
	// signal to mismanage; unique requests are what churns them.
	HotRatio float64

	// PoolSize is the hot-spec pool size per (shape, profile) (default 3).
	PoolSize int

	// Threads caps the threads per ARA request (default 2).
	Threads int

	// TimeoutMS is forwarded in each request (0 = server default).
	TimeoutMS int64

	// Seed makes the stream reproducible (default 1).
	Seed int64

	// Client overrides the HTTP client (default: 30s-timeout client).
	Client *http.Client
}

func (o AdvOptions) withDefaults() AdvOptions {
	if o.WorkersPerProfile <= 0 {
		o.WorkersPerProfile = 2
	}
	if len(o.Profiles) == 0 {
		o.Profiles = []HWProfile{
			{Name: "ara24", NReg: 24},
			{Name: "sra64", NReg: 64, NThd: 3},
			{Name: "ara128", NReg: 128},
		}
	}
	if len(o.Shapes) == 0 {
		o.Shapes = AdvShapes
	}
	if o.HotRatio == 0 {
		o.HotRatio = 0.5
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 3
	}
	if o.Threads <= 0 {
		o.Threads = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return o
}

// advSpec builds one request: a single shape family under a single
// hardware profile, so every outcome classifies cleanly. Thread seeds
// are folded into a small range so bodies recur across different
// requests, thread positions and budgets — the recurrence the rewrite
// tier answers with relocations rather than exact pointer hits.
func (o *AdvOptions) advSpec(shape string, p HWProfile, seed int64) []byte {
	req := core.WireRequest{NReg: p.NReg, TimeoutMS: o.TimeoutMS}
	if p.NThd > 0 {
		req.Mode = "sra"
		req.NThd = p.NThd
		req.Threads = []core.WireThread{
			{Progen: &core.WireProgen{Seed: o.Seed*1000 + seed%16, Shape: shape}},
		}
	} else {
		nthreads := 1 + int(seed)%o.Threads
		for th := 0; th < nthreads; th++ {
			req.Threads = append(req.Threads, core.WireThread{
				Progen: &core.WireProgen{Seed: o.Seed*1000 + (seed+int64(th)*7)%16, Shape: shape},
			})
		}
	}
	blob, err := json.Marshal(&req)
	if err != nil {
		return []byte("{}")
	}
	return blob
}

// AdvShapeStats classifies one shape family's outcomes. OK + Degraded +
// Shed + Invalid + Timeout + FiveXX + Transport partitions Requests;
// AliasMismatch counts 200s whose nreg did not match the submitted
// profile — the result-cache cross-profile aliasing canary — and is also
// counted in OK/Degraded (the response was served, just suspect).
type AdvShapeStats struct {
	Requests      int64 `json:"requests"`
	OK            int64 `json:"ok"`
	Degraded      int64 `json:"degraded"`
	Shed          int64 `json:"shed"`
	Invalid       int64 `json:"invalid"`
	Timeout       int64 `json:"timeout"`
	FiveXX        int64 `json:"five_xx"`
	Transport     int64 `json:"transport"`
	AliasMismatch int64 `json:"alias_mismatch"`
}

// AdvReport is the outcome of one adversarial run.
type AdvReport struct {
	Requests int64                     `json:"requests"`
	ByShape  map[string]*AdvShapeStats `json:"by_shape"`

	// ProfileOK counts served (OK or degraded) responses per profile;
	// FairnessDev is the worst relative deviation of any profile's
	// served share from its equal share under the server's DRR.
	ProfileOK   map[string]int64 `json:"profile_ok"`
	FairnessDev float64          `json:"fairness_dev"`

	// AliasMismatches sums AliasMismatch across shapes; any non-zero
	// value is a cross-profile cache-aliasing bug, never acceptable.
	AliasMismatches int64 `json:"alias_mismatches"`

	// RelocShare is relocation hits over all rewrite-tier lookups
	// (delta across the run): the relocation-storm gate.
	RelocShare float64 `json:"reloc_share"`

	// EvictionsPerReq is the run's eviction delta summed over the
	// function, rewrite and body tiers, per request: the eviction-thrash
	// gate.
	EvictionsPerReq float64 `json:"evictions_per_req"`

	FuncCacheHitRate    float64 `json:"funccache_hit_rate"`
	RewriteCacheHitRate float64 `json:"rewritecache_hit_rate"`

	DurationS     float64 `json:"duration_s"`
	ThroughputRPS float64 `json:"throughput_rps"`

	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`

	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Check validates the adversarial gates: no transport errors, zero
// cross-profile alias mismatches (always enforced), every shape served
// at least once, at most maxFiveXX server errors (-1 disables), a
// relocation share at most maxRelocShare (0 disables), an eviction rate
// at most maxEvictPerReq (0 disables), a p99 at most maxP99MS (0
// disables), and every profile's served share within fairTol of equal
// (0 disables).
func (r *AdvReport) Check(maxFiveXX int64, maxRelocShare, maxEvictPerReq, maxP99MS, fairTol float64) error {
	if r.Requests == 0 {
		return errs.Internalf("adversarial: no requests completed")
	}
	if r.AliasMismatches > 0 {
		return errs.Internalf("adversarial: %d responses carried another profile's register file — cross-profile cache aliasing", r.AliasMismatches)
	}
	shapes := make([]string, 0, len(r.ByShape))
	for shape := range r.ByShape {
		shapes = append(shapes, shape)
	}
	sort.Strings(shapes)
	var fiveXX, transport int64
	for _, shape := range shapes {
		st := r.ByShape[shape]
		fiveXX += st.FiveXX
		transport += st.Transport
		if st.OK+st.Degraded == 0 {
			return errs.Internalf("adversarial: shape %q was never served (stats %+v)", shape, *st)
		}
	}
	if transport > 0 {
		return errs.Internalf("adversarial: %d transport errors", transport)
	}
	if maxFiveXX >= 0 && fiveXX > maxFiveXX {
		return errs.Internalf("adversarial: %d responses were 5xx (allowed %d)", fiveXX, maxFiveXX)
	}
	if maxRelocShare > 0 && r.RelocShare > maxRelocShare {
		return errs.Internalf("adversarial: relocation share %.4f above the %.4f ceiling (relocation storm)",
			r.RelocShare, maxRelocShare)
	}
	if maxEvictPerReq > 0 && r.EvictionsPerReq > maxEvictPerReq {
		return errs.Internalf("adversarial: %.2f evictions/request above the %.2f ceiling (eviction thrash)",
			r.EvictionsPerReq, maxEvictPerReq)
	}
	if maxP99MS > 0 && r.P99MS > maxP99MS {
		return errs.Internalf("adversarial: p99 latency %.2fms above the %.2fms ceiling", r.P99MS, maxP99MS)
	}
	if fairTol > 0 && r.FairnessDev > fairTol {
		return errs.Internalf("adversarial: profile served-share deviates %.4f from equal (allowed %.4f): %v",
			r.FairnessDev, fairTol, r.ProfileOK)
	}
	return nil
}

// RunAdversarial drives the adversarial workload and returns the
// report. It stops when ctx is done, Duration elapses, or MaxRequests
// have been issued — whichever comes first.
func RunAdversarial(ctx context.Context, opt AdvOptions) (*AdvReport, error) {
	opt = opt.withDefaults()
	if opt.URL == "" {
		return nil, errs.Invalidf("loadgen: no target URL")
	}
	if opt.Duration <= 0 && opt.MaxRequests <= 0 {
		return nil, errs.Invalidf("loadgen: need a duration or a request budget")
	}
	if opt.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Duration)
		defer cancel()
	}

	// Hot pools: PoolSize fixed specs per (shape, profile), shared by
	// that profile's workers. Repeats are what exercise the result LRU —
	// and what would surface aliasing if the canonical key ever stopped
	// covering the profile.
	hot := make(map[string][][]byte, len(opt.Shapes)*len(opt.Profiles))
	for _, shape := range opt.Shapes {
		for pi, p := range opt.Profiles {
			pool := make([][]byte, opt.PoolSize)
			for k := range pool {
				pool[k] = opt.advSpec(shape, p, int64(pi*opt.PoolSize+k))
			}
			hot[shape+"|"+p.Name] = pool
		}
	}

	pre, err := ScrapeMetrics(opt.Client, opt.URL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pre-run metrics: %w", err)
	}

	type workerStats struct {
		byShape   map[string]*AdvShapeStats
		profileOK int64
		latencies []float64
	}
	stats := make([]workerStats, len(opt.Profiles)*opt.WorkersPerProfile)
	var issued atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for pi, p := range opt.Profiles {
		for w := 0; w < opt.WorkersPerProfile; w++ {
			wg.Add(1)
			go func(pi int, p HWProfile, slot int) {
				defer wg.Done()
				st := &stats[slot]
				st.byShape = make(map[string]*AdvShapeStats, len(opt.Shapes))
				rng := rand.New(rand.NewSource(opt.Seed + int64(slot)*7919))
				for i := int64(0); ctx.Err() == nil; i++ {
					ticket := issued.Add(1)
					if opt.MaxRequests > 0 && ticket > opt.MaxRequests {
						return
					}
					shape := opt.Shapes[int(i)%len(opt.Shapes)]
					sh := st.byShape[shape]
					if sh == nil {
						sh = &AdvShapeStats{}
						st.byShape[shape] = sh
					}
					var body []byte
					if rng.Float64() < opt.HotRatio {
						pool := hot[shape+"|"+p.Name]
						body = pool[rng.Intn(len(pool))]
					} else {
						body = opt.advSpec(shape, p, 100+ticket)
					}

					req, err := http.NewRequestWithContext(ctx, http.MethodPost,
						opt.URL+"/allocate", bytes.NewReader(body))
					if err != nil {
						sh.Requests++
						sh.Transport++
						continue
					}
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set("X-Tenant", p.Name)
					t0 := time.Now()
					resp, err := opt.Client.Do(req)
					if err != nil {
						if ctx.Err() != nil {
							return // run ended mid-request; don't count it
						}
						sh.Requests++
						sh.Transport++
						continue
					}
					blob, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil {
						sh.Requests++
						sh.Transport++
						continue
					}
					sh.Requests++
					st.latencies = append(st.latencies, float64(time.Since(t0).Nanoseconds())/1e6)
					switch {
					case resp.StatusCode == http.StatusOK:
						var out struct {
							NReg     int  `json:"nreg"`
							Degraded bool `json:"degraded"`
						}
						if json.Unmarshal(blob, &out) != nil || out.NReg != p.NReg {
							sh.AliasMismatch++
						}
						if out.Degraded {
							sh.Degraded++
						} else {
							sh.OK++
						}
						st.profileOK++
					case resp.StatusCode == http.StatusTooManyRequests:
						sh.Shed++
					case resp.StatusCode == http.StatusBadRequest,
						resp.StatusCode == http.StatusUnprocessableEntity:
						sh.Invalid++
					case resp.StatusCode == http.StatusGatewayTimeout:
						sh.Timeout++
					case resp.StatusCode >= 500:
						sh.FiveXX++
					}
				}
			}(pi, p, pi*opt.WorkersPerProfile+w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &AdvReport{
		ByShape:   make(map[string]*AdvShapeStats, len(opt.Shapes)),
		ProfileOK: make(map[string]int64, len(opt.Profiles)),
		DurationS: elapsed.Seconds(),
	}
	for _, shape := range opt.Shapes {
		rep.ByShape[shape] = &AdvShapeStats{}
	}
	var all []float64
	for pi, p := range opt.Profiles {
		for w := 0; w < opt.WorkersPerProfile; w++ {
			st := &stats[pi*opt.WorkersPerProfile+w]
			rep.ProfileOK[p.Name] += st.profileOK
			all = append(all, st.latencies...)
			workerShapes := make([]string, 0, len(st.byShape))
			for shape := range st.byShape {
				workerShapes = append(workerShapes, shape)
			}
			sort.Strings(workerShapes)
			for _, shape := range workerShapes {
				sh := st.byShape[shape]
				dst := rep.ByShape[shape]
				dst.Requests += sh.Requests
				dst.OK += sh.OK
				dst.Degraded += sh.Degraded
				dst.Shed += sh.Shed
				dst.Invalid += sh.Invalid
				dst.Timeout += sh.Timeout
				dst.FiveXX += sh.FiveXX
				dst.Transport += sh.Transport
				dst.AliasMismatch += sh.AliasMismatch
			}
		}
	}
	for _, sh := range rep.ByShape {
		rep.Requests += sh.Requests
		rep.AliasMismatches += sh.AliasMismatch
	}
	sort.Float64s(all)
	if len(all) > 0 {
		rep.P50MS = percentile(all, 0.50)
		rep.P90MS = percentile(all, 0.90)
		rep.P99MS = percentile(all, 0.99)
		rep.MaxMS = all[len(all)-1]
		sum := 0.0
		for _, v := range all {
			sum += v
		}
		rep.MeanMS = sum / float64(len(all))
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	rep.FairnessDev = fairnessDev(rep.ProfileOK, nil) // equal shares

	post, err := ScrapeMetrics(opt.Client, opt.URL)
	if err != nil {
		return rep, fmt.Errorf("loadgen: post-run metrics: %w", err)
	}
	rep.Metrics = post
	delta := func(name string) float64 { return post[name] - pre[name] }
	fh, fm := delta("npserve_func_cache_hits"), delta("npserve_func_cache_misses")
	if fh+fm > 0 {
		rep.FuncCacheHitRate = fh / (fh + fm)
	}
	rh := delta("npserve_rewrite_cache_hits")
	rr := delta("npserve_rewrite_cache_reloc_hits")
	rm := delta("npserve_rewrite_cache_misses")
	if rh+rr+rm > 0 {
		rep.RelocShare = rr / (rh + rr + rm)
		rep.RewriteCacheHitRate = (rh + rr) / (rh + rr + rm)
	}
	if rep.Requests > 0 {
		rep.EvictionsPerReq = (delta("npserve_func_cache_evictions") +
			delta("npserve_rewrite_cache_evictions") +
			delta("npserve_body_cache_evictions")) / float64(rep.Requests)
	}
	return rep, nil
}
