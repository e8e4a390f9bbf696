package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"npra/internal/core"
	"npra/internal/faultinject"
)

// newTestServer starts a Server behind an httptest listener and wires
// both into t's cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

// progenBody builds an ARA request over progen specs, one per seed.
func progenBody(t *testing.T, nreg int, timeoutMS int64, seeds ...int64) string {
	t.Helper()
	req := core.WireRequest{NReg: nreg, TimeoutMS: timeoutMS}
	for _, seed := range seeds {
		req.Threads = append(req.Threads, core.WireThread{Progen: &core.WireProgen{Seed: seed}})
	}
	blob, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/allocate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func decodeOK(t *testing.T, resp *http.Response, blob []byte) *Response {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, blob)
	}
	var out Response
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("decoding %s: %v", blob, err)
	}
	return &out
}

func decodeErr(t *testing.T, resp *http.Response, blob []byte, wantStatus int, wantKind string) *core.WireError {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, wantStatus, blob)
	}
	var we core.WireError
	if err := json.Unmarshal(blob, &we); err != nil {
		t.Fatalf("non-JSON error body %s: %v", blob, err)
	}
	if we.Kind != wantKind {
		t.Fatalf("error kind %q, want %q (body %s)", we.Kind, wantKind, blob)
	}
	if we.Error == "" {
		t.Fatal("error body has no message")
	}
	return &we
}

// mustOK posts body and decodes the expected 200 response.
func mustOK(t *testing.T, url, body string) *Response {
	t.Helper()
	resp, blob := post(t, url, body)
	return decodeOK(t, resp, blob)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAllocateHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, blob := post(t, ts.URL, progenBody(t, 48, 0, 1, 2, 3))
	out := decodeOK(t, resp, blob)
	if out.Degraded {
		t.Errorf("unexpected degraded result (cause %q)", out.Cause)
	}
	if len(out.Threads) != 3 {
		t.Fatalf("got %d threads, want 3", len(out.Threads))
	}
	if out.TotalRegisters > 48 {
		t.Errorf("TotalRegisters = %d exceeds the budget 48", out.TotalRegisters)
	}
	for i, th := range out.Threads {
		if th.PR < 1 {
			t.Errorf("thread %d: pr = %d, want >= 1", i, th.PR)
		}
		if th.Asm != "" {
			t.Errorf("thread %d: asm present without dump", i)
		}
	}
	if out.Shared || out.Cached {
		t.Errorf("first request marked shared=%v cached=%v", out.Shared, out.Cached)
	}
	if out.Batched != 1 {
		t.Errorf("lone request ran in a batch of %d", out.Batched)
	}
	if out.ElapsedMS <= 0 {
		t.Errorf("elapsed_ms = %v, want > 0", out.ElapsedMS)
	}
}

func TestAllocateSRA(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"mode":"sra","nreg":64,"nthd":4,"threads":[{"progen":{"seed":9}}]}`
	resp, blob := post(t, ts.URL, req)
	out := decodeOK(t, resp, blob)
	if len(out.Threads) != 4 {
		t.Fatalf("sra nthd=4 returned %d threads", len(out.Threads))
	}
}

func TestAllocateDefaultNReg(t *testing.T) {
	_, ts := newTestServer(t, Config{NReg: 40})
	resp, blob := post(t, ts.URL, `{"threads":[{"progen":{"seed":5}}]}`)
	out := decodeOK(t, resp, blob)
	if out.NReg != 40 {
		t.Errorf("nreg defaulted to %d, want the server's 40", out.NReg)
	}
}

func TestMalformedRequests400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"truncated", `{"nreg": 32`},
		{"not json", `hello`},
		{"wrong type", `{"nreg": "many"}`},
		{"unknown field", `{"nreg": 32, "bogus": 1, "threads":[{"progen":{"seed":1}}]}`},
		{"trailing garbage", `{"nreg":32,"threads":[{"progen":{"seed":1}}]} {"again":true}`},
		{"no threads", `{"nreg": 32, "threads": []}`},
		{"bad asm", `{"nreg": 32, "threads":[{"asm":"func x\nentry:\n\tbogus v0\n"}]}`},
		{"bad progen shape", `{"nreg": 32, "threads":[{"progen":{"seed":1,"max_depth":99}}]}`},
		{"empty body", ``},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, blob := post(t, ts.URL, tc.body)
			decodeErr(t, resp, blob, http.StatusBadRequest, "invalid")
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/allocate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	decodeErr(t, resp, blob, http.StatusMethodNotAllowed, "invalid")
}

func TestOversizedBody400(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := progenBody(t, 32, 0, 1, 2, 3, 4, 5, 6, 7, 8)
	if len(big) <= 128 {
		t.Fatalf("test body only %d bytes, grow it", len(big))
	}
	resp, blob := post(t, ts.URL, big)
	decodeErr(t, resp, blob, http.StatusBadRequest, "invalid")
}

func TestDeadline504(t *testing.T) {
	faultinject.Arm(faultinject.SiteServe, faultinject.Plan{Mode: faultinject.Delay, Delay: 300 * time.Millisecond})
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{})
	resp, blob := post(t, ts.URL, progenBody(t, 32, 20, 1))
	decodeErr(t, resp, blob, http.StatusGatewayTimeout, "timeout")
}

func TestInjectedError500(t *testing.T) {
	faultinject.Arm(faultinject.SiteServe, faultinject.Plan{Mode: faultinject.Error})
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{})
	resp, blob := post(t, ts.URL, progenBody(t, 32, 0, 1))
	decodeErr(t, resp, blob, http.StatusInternalServerError, "internal")
}

func TestInjectedPanicBecomesTyped500(t *testing.T) {
	faultinject.Arm(faultinject.SiteServe, faultinject.Plan{Mode: faultinject.Panic})
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{})
	resp, blob := post(t, ts.URL, progenBody(t, 32, 0, 1))
	we := decodeErr(t, resp, blob, http.StatusInternalServerError, "internal")
	if !strings.Contains(we.Error, "panic") {
		t.Errorf("panic 500 does not say so: %q", we.Error)
	}
}

func TestDegradedSurfaces(t *testing.T) {
	faultinject.Arm(faultinject.SiteFinalize, faultinject.Plan{Mode: faultinject.Error})
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, Config{})
	resp, blob := post(t, ts.URL, progenBody(t, 32, 0, 21, 22))
	out := decodeOK(t, resp, blob)
	if !out.Degraded {
		t.Fatal("injected finalize fault did not surface degraded:true")
	}
	if out.Cause == "" {
		t.Error("degraded result carries no cause")
	}
	if got := s.Metrics().Degraded; got != 1 {
		t.Errorf("metrics degraded = %d, want 1", got)
	}

	// Degraded results must not be cached: the identical request leads a
	// fresh flight (and succeeds once the fault is cleared).
	faultinject.Reset()
	resp, blob = post(t, ts.URL, progenBody(t, 32, 0, 21, 22))
	out = decodeOK(t, resp, blob)
	if out.Degraded {
		t.Error("degraded result was served from cache after the fault cleared")
	}
	if out.Shared || out.Cached {
		t.Errorf("degraded flight was cached (shared=%v cached=%v)", out.Shared, out.Cached)
	}
}

func TestSingleflightResultCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := progenBody(t, 48, 0, 31, 32)

	first := mustOK(t, ts.URL, body)
	second := mustOK(t, ts.URL, body)
	if first.Shared || first.Cached {
		t.Errorf("first request shared=%v cached=%v", first.Shared, first.Cached)
	}
	if !second.Shared || !second.Cached {
		t.Errorf("identical repeat not served from cache (shared=%v cached=%v)", second.Shared, second.Cached)
	}
	if first.SGR != second.SGR || first.TotalRegisters != second.TotalRegisters {
		t.Error("cached response differs from the original")
	}
	snap := s.Metrics()
	if snap.SingleflightMisses != 1 || snap.SingleflightCachedHits != 1 {
		t.Errorf("misses=%d cachedHits=%d, want 1/1", snap.SingleflightMisses, snap.SingleflightCachedHits)
	}
	if snap.Batches != 1 {
		t.Errorf("engine ran %d times for two identical requests, want 1", snap.Batches)
	}
}

func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: -1})
	body := progenBody(t, 48, 0, 41)
	mustOK(t, ts.URL, body)
	out := mustOK(t, ts.URL, body)
	if out.Cached {
		t.Error("result cache disabled but repeat request hit it")
	}
	if got := s.Metrics().Batches; got != 2 {
		t.Errorf("engine ran %d times, want 2 with caching disabled", got)
	}
}

func TestCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2})
	a := progenBody(t, 48, 0, 51)
	b := progenBody(t, 48, 0, 52)
	c := progenBody(t, 48, 0, 53)
	mustOK(t, ts.URL, a)
	mustOK(t, ts.URL, b)
	mustOK(t, ts.URL, a) // touch a: LRU order is now b, a
	mustOK(t, ts.URL, c) // evicts b
	if out := mustOK(t, ts.URL, a); !out.Cached {
		t.Error("recently-used entry was evicted")
	}
	if out := mustOK(t, ts.URL, b); out.Cached {
		t.Error("least-recently-used entry survived past capacity")
	}
	snap := s.Metrics()
	if snap.SingleflightCachedHits != 2 {
		t.Errorf("cached hits = %d, want 2", snap.SingleflightCachedHits)
	}
}

// TestOverload429 wedges the engine on a slow job, fills the one-slot
// queue, and checks the next leader is refused with 429 + Retry-After —
// while the wedged requests still complete.
func TestOverload429(t *testing.T) {
	faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{Mode: faultinject.Delay, Delay: 400 * time.Millisecond, Count: 1})
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, Config{MaxQueue: 1, MaxBatch: 1})

	var wg sync.WaitGroup
	codes := make([]int, 2)
	launch := func(i int, seed int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/allocate", "application/json",
				strings.NewReader(progenBody(t, 32, 0, seed)))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}

	launch(0, 61) // picked up by the batcher, wedged in the engine
	waitFor(t, "the engine to pick up the first job", func() bool {
		snap := s.Metrics()
		return snap.Batches == 1 && snap.QueueDepth == 0
	})
	launch(1, 62) // sits in the queue
	waitFor(t, "the queue to fill", func() bool { return s.Metrics().QueueDepth == 1 })

	resp, blob := post(t, ts.URL, progenBody(t, 32, 0, 63))
	decodeErr(t, resp, blob, http.StatusTooManyRequests, "overload")
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	if got := s.Metrics().Overloads; got != 1 {
		t.Errorf("overload counter = %d, want 1", got)
	}

	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("wedged request %d finished with %d, want 200", i, code)
		}
	}
}

// TestBatchingForms wedges the engine so jobs accumulate, then checks
// the collector drains them as one batch and stamps each response with
// the batch size.
func TestBatchingForms(t *testing.T) {
	faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{Mode: faultinject.Delay, Delay: 300 * time.Millisecond, Count: 1})
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, Config{MaxBatch: 4, MaxQueue: 8})

	type result struct {
		idx int
		out *Response
	}
	var wg sync.WaitGroup
	results := make(chan result, 4)
	launch := func(i int, seed int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/allocate", "application/json",
				strings.NewReader(progenBody(t, 32, 0, seed)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			blob, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d body %s", i, resp.StatusCode, blob)
				return
			}
			var out Response
			if err := json.Unmarshal(blob, &out); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results <- result{i, &out}
		}()
	}

	launch(0, 71) // wedged alone in the engine
	waitFor(t, "the engine to pick up the first job", func() bool {
		snap := s.Metrics()
		return snap.Batches == 1 && snap.QueueDepth == 0
	})
	launch(1, 72)
	launch(2, 73)
	launch(3, 74)
	waitFor(t, "three jobs to queue behind the wedge", func() bool { return s.Metrics().QueueDepth == 3 })

	wg.Wait()
	close(results)
	for r := range results {
		want := 3
		if r.idx == 0 {
			want = 1
		}
		if r.out.Batched != want {
			t.Errorf("request %d: batched = %d, want %d", r.idx, r.out.Batched, want)
		}
	}
	snap := s.Metrics()
	if snap.Batches != 2 || snap.BatchRequests != 4 || snap.MaxBatch != 3 {
		t.Errorf("batches=%d batchRequests=%d maxBatch=%d, want 2/4/3",
			snap.Batches, snap.BatchRequests, snap.MaxBatch)
	}
}

// TestDrain checks the graceful-shutdown contract: an in-flight request
// finishes with 200 after Drain begins, new requests and health checks
// get 503, and Drain itself returns cleanly.
func TestDrain(t *testing.T) {
	faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{Mode: faultinject.Delay, Delay: 300 * time.Millisecond, Count: 1})
	t.Cleanup(faultinject.Reset)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var slowCode int
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/allocate", "application/json",
			strings.NewReader(progenBody(t, 32, 0, 81)))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slowCode = resp.StatusCode
	}()
	waitFor(t, "the engine to pick up the slow job", func() bool { return s.Metrics().Batches == 1 })

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	waitFor(t, "draining to begin", func() bool { return s.Draining() })

	// New work is refused while the drain waits on the slow request.
	resp, blob := post(t, ts.URL, progenBody(t, 32, 0, 82))
	decodeErr(t, resp, blob, http.StatusServiceUnavailable, "draining")
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After header")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hresp.StatusCode)
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if slowCode != http.StatusOK {
		t.Errorf("in-flight request finished with %d after drain, want 200", slowCode)
	}
	if got := s.Metrics().Drains; got == 0 {
		t.Error("drain refusals not counted")
	}

	// A second drain is a no-op.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

func TestDrainDeadline(t *testing.T) {
	faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{Mode: faultinject.Delay, Delay: 500 * time.Millisecond, Count: 1})
	t.Cleanup(faultinject.Reset)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/allocate", "application/json",
			strings.NewReader(progenBody(t, 32, 0, 91)))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "the engine to pick up the slow job", func() bool { return s.Metrics().Batches == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil despite an expired deadline")
	} else if kind := core.ErrorKind(err); kind != "timeout" {
		t.Errorf("interrupted Drain error kind = %q, want timeout (%v)", kind, err)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil { // finishes in the background
		t.Fatalf("follow-up Drain: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := progenBody(t, 48, 0, 101)
	mustOK(t, ts.URL, body)
	mustOK(t, ts.URL, body)
	post(t, ts.URL, `not json`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`npserve_requests_total{code="200"} 2`,
		`npserve_requests_total{code="400"} 1`,
		"npserve_singleflight_hits 1",
		"npserve_singleflight_misses 1",
		"npserve_singleflight_hit_rate 0.5000",
		"npserve_engine_invocations_total 1",
		"npserve_latency_ms_count 3",
		`npserve_latency_ms_bucket{le="+Inf"} 3`,
		"npserve_queue_depth 0",
		// One engine run over one body: a func-cache miss that installed
		// one entry with one pooled allocator. The duplicate was decoded
		// and compiled again, so the body cache saw one miss and one hit
		// before the result LRU answered it; the bad-JSON request never
		// reached the body cache. The engine's one rewrite registered a
		// canonical and a relocated body with the rewrite cache.
		"npserve_func_cache_hits 0",
		"npserve_func_cache_misses 1",
		"npserve_func_cache_entries 1",
		"npserve_func_cache_idle 1",
		"npserve_body_cache_hits 1",
		"npserve_body_cache_misses 1",
		"npserve_body_cache_entries 1",
		"npserve_rewrite_cache_misses 1",
		"npserve_rewrite_cache_entries 2",
		`npserve_engine_phase_ns{phase="rewrite_cached"} 0`,
	} {
		if !strings.Contains(string(text), want+"\n") {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(blob, []byte(`"ok"`)) {
		t.Errorf("healthz body %s", blob)
	}
}

func TestInfeasible422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Sixteen identical threads cannot share 2 registers.
	var req core.WireRequest
	req.NReg = 2
	for i := 0; i < 8; i++ {
		req.Threads = append(req.Threads, core.WireThread{Progen: &core.WireProgen{Seed: int64(i)}})
	}
	blob, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := post(t, ts.URL, string(blob))
	decodeErr(t, resp, out, http.StatusUnprocessableEntity, "infeasible")
}

func TestEngineTimeoutNotCached(t *testing.T) {
	// A request whose deadline expires inside the engine produces a
	// degraded (static partition) result — and that result must not
	// poison the cache for a later full-deadline request.
	faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{Mode: faultinject.Delay, Delay: 200 * time.Millisecond, Count: 1})
	s, ts := newTestServer(t, Config{})
	body := progenBody(t, 32, 50, 111)
	resp, blob := post(t, ts.URL, body)
	faultinject.Reset()
	// Depending on where the deadline lands this is either a degraded
	// 200 or a 504; both are acceptable, neither may be cached.
	if resp.StatusCode == http.StatusOK {
		var out Response
		if err := json.Unmarshal(blob, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Degraded {
			t.Fatalf("slow engine run returned a clean 200: %s", blob)
		}
	} else if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 200-degraded or 504 (body %s)", resp.StatusCode, blob)
	}
	// Wait for the job itself, not for Batches == 1: that counter is
	// bumped when the batch starts, and a follow-up request sent while
	// the degraded flight still runs would join it. The job is finished
	// once its flight has left the in-flight set.
	waitFor(t, "the wedged engine job to finish", func() bool {
		s.flightMu.Lock()
		defer s.flightMu.Unlock()
		return len(s.fg.inflight) == 0
	})

	out := mustOK(t, ts.URL, progenBody(t, 32, 0, 111))
	if out.Degraded || out.Cached {
		t.Errorf("degraded/timed-out flight leaked into the cache (degraded=%v cached=%v)", out.Degraded, out.Cached)
	}
}

func TestResponseEnvelopeFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := progenBody(t, 48, 0, 121)
	out := mustOK(t, ts.URL, body)
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"nreg"`, `"sgr"`, `"total_registers"`, `"threads"`, `"degraded"`, `"shared"`, `"cached"`, `"batched"`, `"elapsed_ms"`} {
		if !bytes.Contains(blob, []byte(field)) {
			t.Errorf("envelope missing %s: %s", field, blob)
		}
	}
}

func TestSnapshotHitRate(t *testing.T) {
	snap := &Snapshot{SingleflightInflightHits: 3, SingleflightCachedHits: 2, SingleflightMisses: 5}
	if got := snap.SingleflightHits(); got != 5 {
		t.Errorf("hits = %d, want 5", got)
	}
	if got := snap.SingleflightHitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
	if got := (&Snapshot{}).SingleflightHitRate(); got != 0 {
		t.Errorf("empty hit rate = %v, want 0", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.NReg != 128 || cfg.MaxQueue != 64 || cfg.MaxBatch != 4 ||
		cfg.DefaultTimeout != 10*time.Second || cfg.MaxTimeout != 60*time.Second ||
		cfg.CacheEntries != 256 || cfg.RetryAfter != time.Second || cfg.MaxBodyBytes != 1<<20 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if got := (Config{CacheEntries: -1}).withDefaults().CacheEntries; got != 0 {
		t.Errorf("negative CacheEntries = %d, want 0 (disabled)", got)
	}
}
