package loadgen

// The adversarial workload: heterogeneous hardware profiles drive
// cache-hostile progen shapes against one server, and the report
// watches the failure modes a friendly kernel pool never reaches —
// relocation storms in the rewrite tier, eviction thrash when the
// caches are squeezed, result-cache aliasing across register files, and
// admission fairness when profiles skew the work size.
//
// Each worker is pinned to one hardware profile (its X-Tenant), so the
// profiles form closed loops exactly like chaos tenants; shapes cycle
// per request. Half of each worker's requests repeat a small hot pool —
// without repeats the tiny caches would only ever miss, and the
// relocation/eviction counters would measure nothing.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"npra/internal/core"
	"npra/internal/core/errs"
)

// hwProfile is one hardware profile in the heterogeneous stream: a
// register-file size and, when nthd is set, the symmetric (SRA) mode
// with that thread count. Its name doubles as its workers' X-Tenant,
// so the server's DRR admission sees one tenant per profile.
type hwProfile struct {
	name string
	nreg int
	nthd int // >0: mode "sra" with this thread count
}

// The adversarial stream's fixed shape: the profiles, the generator
// families each worker rotates through (they must match the families
// progen accepts on the wire), the probability that a request repeats
// one of advPoolSize hot specs of its (shape, profile) slot instead of
// a fresh unique one, and the thread cap per ARA request. Hot repeats
// are what give the cache tiers a reuse signal to mismanage; unique
// requests are what churns them.
var (
	advProfiles = []hwProfile{
		{name: "ara24", nreg: 24},
		{name: "sra64", nreg: 64, nthd: 3},
		{name: "ara128", nreg: 128},
	}
	advShapes = []string{"trampoline", "boundary", "palette", "nearcollision"}
)

const (
	advHotRatio   = 0.5
	advPoolSize   = 3
	advMaxThreads = 2
)

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

	// Seed makes the stream reproducible (default 1).
	Seed int64
}

// advSpec builds one request: a single shape family under a single
// hardware profile, so every outcome classifies cleanly. Thread seeds
// are folded into a small range so bodies recur across different
// requests, thread positions and budgets — the recurrence the rewrite
// tier answers with relocations rather than exact pointer hits.
func (o *AdvOptions) advSpec(shape string, p hwProfile, seed int64) []byte {
	req := core.WireRequest{NReg: p.nreg}
	if p.nthd > 0 {
		req.Mode = "sra"
		req.NThd = p.nthd
		req.Threads = []core.WireThread{
			{Progen: &core.WireProgen{Seed: o.Seed*1000 + seed%16, Shape: shape}},
		}
	} else {
		nthreads := 1 + int(seed)%advMaxThreads
		for th := 0; th < nthreads; th++ {
			req.Threads = append(req.Threads, core.WireThread{
				Progen: &core.WireProgen{Seed: o.Seed*1000 + (seed+int64(th)*7)%16, Shape: shape},
			})
		}
	}
	return marshal(&req)
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

	// RelocShare is the share of all rewrite-tier lookups across the
	// run that relocation hits answered: reloc_hits / (hits +
	// reloc_hits + misses), from /metrics deltas. It bounds relocation
	// storms; it cannot tell whether exact-palette entries ever hit,
	// since exact hits and misses share the denominator.
	RelocShare float64 `json:"reloc_share"`

	// EvictionsPerReq is the run's eviction delta summed over the
	// function, rewrite and body tiers, per request: the eviction-thrash
	// gate.
	EvictionsPerReq float64 `json:"evictions_per_req"`

	FuncCacheHitRate    float64 `json:"funccache_hit_rate"`
	RewriteCacheHitRate float64 `json:"rewritecache_hit_rate"`

	Latency

	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Check validates the adversarial gates: no transport errors, zero
// cross-profile alias mismatches and every shape served at least once
// (all three always enforced), at most maxFiveXX server errors, a
// relocation share at most maxRelocShare, an eviction rate at most
// maxEvictPerReq, a p99 at most maxP99MS, and every profile's served
// share within fairTol of equal. A negative bound disables its gate.
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
	if maxRelocShare >= 0 && r.RelocShare > maxRelocShare {
		return errs.Internalf("adversarial: relocation share %.4f above the %.4f ceiling (relocation storm)",
			r.RelocShare, maxRelocShare)
	}
	if maxEvictPerReq >= 0 && r.EvictionsPerReq > maxEvictPerReq {
		return errs.Internalf("adversarial: %.2f evictions/request above the %.2f ceiling (eviction thrash)",
			r.EvictionsPerReq, maxEvictPerReq)
	}
	if maxP99MS >= 0 && r.P99MS > maxP99MS {
		return errs.Internalf("adversarial: p99 latency %.2fms above the %.2fms ceiling", r.P99MS, maxP99MS)
	}
	if fairTol >= 0 && r.FairnessDev > fairTol {
		return errs.Internalf("adversarial: profile served-share deviates %.4f from equal (allowed %.4f): %v",
			r.FairnessDev, fairTol, r.ProfileOK)
	}
	return nil
}

// advAnswer is what one adversarial request got back, tagged with the
// shape it was built from.
type advAnswer struct {
	shape  string
	status int
	body   []byte
}

// RunAdversarial drives the adversarial workload and returns the
// report. It stops when ctx is done, Duration elapses, or MaxRequests
// have been issued — whichever comes first.
func RunAdversarial(ctx context.Context, opt AdvOptions) (*AdvReport, error) {
	if opt.URL == "" {
		return nil, errs.Invalidf("loadgen: no target URL")
	}
	if opt.WorkersPerProfile <= 0 {
		opt.WorkersPerProfile = 2
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	client := newClient()

	// Hot pools: advPoolSize fixed specs per (shape, profile), shared by
	// that profile's workers. Repeats are what exercise the result LRU —
	// and what would surface aliasing if the canonical key ever stopped
	// covering the profile.
	hot := make(map[string][][]byte, len(advShapes)*len(advProfiles))
	for _, shape := range advShapes {
		for pi, p := range advProfiles {
			pool := make([][]byte, advPoolSize)
			for k := range pool {
				pool[k] = opt.advSpec(shape, p, int64(pi*advPoolSize+k))
			}
			hot[shape+"|"+p.name] = pool
		}
	}

	pre, err := ScrapeMetrics(client, opt.URL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pre-run metrics: %w", err)
	}

	// Workers are numbered profile by profile: worker w is pinned to
	// profile w/WorkersPerProfile, draws from its own rng and rotates
	// the shapes by its own request count.
	workers := len(advProfiles) * opt.WorkersPerProfile
	rngs := make([]*rand.Rand, workers)
	sent := make([]int, workers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(opt.Seed + int64(w)*7919))
	}
	rep := &AdvReport{
		ByShape:   make(map[string]*AdvShapeStats, len(advShapes)),
		ProfileOK: make(map[string]int64, len(advProfiles)),
	}
	for _, shape := range advShapes {
		rep.ByShape[shape] = &AdvShapeStats{}
	}
	for _, p := range advProfiles {
		rep.ProfileOK[p.name] = 0
	}
	timing, err := closedLoop(ctx, opt.Duration, opt.MaxRequests, workers,
		func(ctx context.Context, w int, ticket int64) (advAnswer, error) {
			p := advProfiles[w/opt.WorkersPerProfile]
			shape := advShapes[sent[w]%len(advShapes)]
			sent[w]++
			var body []byte
			if rngs[w].Float64() < advHotRatio {
				pool := hot[shape+"|"+p.name]
				body = pool[rngs[w].Intn(len(pool))]
			} else {
				body = opt.advSpec(shape, p, 100+ticket)
			}
			status, blob, err := post(ctx, client, opt.URL, body, p.name)
			return advAnswer{shape: shape, status: status, body: blob}, err
		},
		func(w int, a advAnswer, err error) bool {
			p := advProfiles[w/opt.WorkersPerProfile]
			sh := rep.ByShape[a.shape]
			sh.Requests++
			rep.Requests++
			switch {
			case err != nil:
				sh.Transport++
				return false
			case a.status == http.StatusOK:
				var out struct {
					NReg     int  `json:"nreg"`
					Degraded bool `json:"degraded"`
				}
				if json.Unmarshal(a.body, &out) != nil || out.NReg != p.nreg {
					sh.AliasMismatch++
					rep.AliasMismatches++
				}
				if out.Degraded {
					sh.Degraded++
				} else {
					sh.OK++
				}
				rep.ProfileOK[p.name]++
			case a.status == http.StatusTooManyRequests:
				sh.Shed++
			case a.status == http.StatusBadRequest,
				a.status == http.StatusUnprocessableEntity:
				sh.Invalid++
			case a.status == http.StatusGatewayTimeout:
				sh.Timeout++
			case a.status >= 500:
				sh.FiveXX++
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	rep.Latency = timing.summary(rep.Requests)
	rep.FairnessDev = fairnessDev(rep.ProfileOK, nil) // equal shares

	after, err := ScrapeMetrics(client, opt.URL)
	if err != nil {
		return rep, fmt.Errorf("loadgen: post-run metrics: %w", err)
	}
	rep.Metrics = after
	delta := func(name string) float64 { return after[name] - pre[name] }
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
