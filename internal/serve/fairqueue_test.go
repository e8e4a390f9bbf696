package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"npra/internal/faultinject"
)

func qjob(tenant, priority string) *job {
	return &job{tenant: tenant, priority: priority}
}

// TestFairQueueDRRWeights backlogs two tenants at 10:1 offered load
// with 3:1 weights and checks the drained order serves them in
// weight proportion, not arrival proportion.
func TestFairQueueDRRWeights(t *testing.T) {
	q := newFairQueue(200, 200, 200, 200, map[string]int{"heavy": 3, "light": 1})
	// 10:1 offered load: the heavy tenant floods first, so a FIFO would
	// serve ~100 heavy jobs before the first light one.
	for i := 0; i < 100; i++ {
		if err := q.push(qjob("heavy", "")); err != nil {
			t.Fatalf("push heavy #%d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := q.push(qjob("light", "")); err != nil {
			t.Fatalf("push light #%d: %v", i, err)
		}
	}

	// While both stay backlogged (the first 40 pops: light has 10 jobs,
	// so it cannot go idle before ~30 heavy are served at 3:1), served
	// counts must track the 3:1 weights.
	heavy, light := 0, 0
	for i := 0; i < 40; i++ {
		j, ok := q.pop(false)
		if !ok {
			t.Fatalf("pop #%d: queue empty early", i)
		}
		switch j.tenant {
		case "heavy":
			heavy++
		case "light":
			light++
		}
	}
	if light == 0 {
		t.Fatal("light tenant starved behind the heavy backlog")
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("served ratio heavy:light = %d:%d (%.2f), want ≈3.0 (weights 3:1)", heavy, light, ratio)
	}

	// The rest drains completely.
	rest := 0
	for {
		if _, ok := q.pop(false); !ok {
			break
		}
		rest++
	}
	if heavy+light+rest != 110 {
		t.Fatalf("drained %d jobs, want 110", heavy+light+rest)
	}
}

// TestFairQueueEqualWeightsInterleave checks the unweighted default:
// two backlogged tenants alternate regardless of offered load.
func TestFairQueueEqualWeightsInterleave(t *testing.T) {
	q := newFairQueue(100, 100, 100, 100, nil)
	for i := 0; i < 20; i++ {
		if err := q.push(qjob("a", "")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := q.push(qjob("b", "")); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for i := 0; i < 10; i++ {
		j, ok := q.pop(false)
		if !ok {
			t.Fatal("queue empty early")
		}
		order = append(order, j.tenant)
	}
	got := strings.Join(order, "")
	if got != "ababababab" {
		t.Fatalf("pop order = %q, want strict alternation while both are backlogged", got)
	}
}

// TestFairQueueShedTiers drives the backlog through the shed
// thresholds and checks each priority class is refused at its own
// tier — low first, then normal, high only at capacity.
func TestFairQueueShedTiers(t *testing.T) {
	// capacity 10, low sheds at 4, normal at 7.
	q := newFairQueue(10, 10, 4, 7, nil)

	fill := func(n int, priority string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := q.push(qjob("t", priority)); err != nil {
				t.Fatalf("push %s at depth %d: %v", priority, q.depth(), err)
			}
		}
	}
	wantRefusal := func(priority, reason string) {
		t.Helper()
		err := q.push(qjob("t", priority))
		if err == nil {
			t.Fatalf("push %s at depth %d admitted, want refusal %s", priority, q.depth(), reason)
		}
		var oe *overloadError
		if !errors.As(err, &oe) || oe.reason != reason {
			t.Fatalf("push %s: err %v, want reason %s", priority, err, reason)
		}
		if !errors.Is(err, errOverload) {
			t.Fatalf("refusal %v does not wrap errOverload", err)
		}
	}

	fill(4, "low") // depth 4 = shedLow
	wantRefusal("low", admitShedLow)
	fill(3, "normal") // depth 7 = shedNormal
	wantRefusal("normal", admitShedNormal)
	wantRefusal("", admitShedNormal) // empty priority defaults to normal
	fill(3, "high")                  // depth 10 = capacity
	wantRefusal("high", admitQueueFull)
}

// TestFairQueueTenantCap checks one tenant's backlog cap refuses only
// that tenant.
func TestFairQueueTenantCap(t *testing.T) {
	q := newFairQueue(100, 3, 100, 100, nil)
	for i := 0; i < 3; i++ {
		if err := q.push(qjob("greedy", "")); err != nil {
			t.Fatal(err)
		}
	}
	err := q.push(qjob("greedy", ""))
	var oe *overloadError
	if !errors.As(err, &oe) || oe.reason != admitTenantFull {
		t.Fatalf("4th greedy push: err %v, want reason %s", err, admitTenantFull)
	}
	if err := q.push(qjob("modest", "")); err != nil {
		t.Fatalf("other tenant refused alongside the capped one: %v", err)
	}
}

// TestFairQueueClose checks close refuses new pushes but drains what
// was already admitted.
func TestFairQueueClose(t *testing.T) {
	q := newFairQueue(10, 10, 10, 10, nil)
	if err := q.push(qjob("t", "")); err != nil {
		t.Fatal(err)
	}
	q.close()
	err := q.push(qjob("t", ""))
	var oe *overloadError
	if !errors.As(err, &oe) || oe.reason != admitClosed {
		t.Fatalf("push after close: err %v, want reason %s", err, admitClosed)
	}
	if _, ok := q.pop(true); !ok {
		t.Fatal("queued job lost on close")
	}
	if _, ok := q.pop(true); ok {
		t.Fatal("pop returned a job from a closed empty queue")
	}
}

// TestRetryAfterMonotone pins retryAfterHint's contract: monotonically
// non-decreasing in backlog depth and in per-job service time, floored
// by cfg.RetryAfter, never below 1s.
func TestRetryAfterMonotone(t *testing.T) {
	floor := time.Second
	perJobs := []time.Duration{0, time.Millisecond, 40 * time.Millisecond, 300 * time.Millisecond, 2 * time.Second}
	depths := []int{0, 1, 2, 5, 10, 50, 200}

	for _, perJob := range perJobs {
		prev := 0
		for _, depth := range depths {
			got := retryAfterHint(depth, perJob, floor)
			if got < 1 {
				t.Fatalf("hint(%d, %v) = %d, want >= 1", depth, perJob, got)
			}
			if got < int(floor/time.Second) {
				t.Fatalf("hint(%d, %v) = %d, below the %v floor", depth, perJob, got, floor)
			}
			if got < prev {
				t.Fatalf("hint not monotone in depth: hint(%d, %v) = %d after %d", depth, perJob, got, prev)
			}
			prev = got
		}
	}
	for _, depth := range depths {
		prev := 0
		for _, perJob := range perJobs {
			got := retryAfterHint(depth, perJob, floor)
			if got < prev {
				t.Fatalf("hint not monotone in perJob: hint(%d, %v) = %d after %d", depth, perJob, got, prev)
			}
			prev = got
		}
	}
	// Spot values: 10 queued jobs at 500ms each = 5.5s → ceil 6.
	if got := retryAfterHint(10, 500*time.Millisecond, time.Second); got != 6 {
		t.Fatalf("hint(10, 500ms) = %d, want 6", got)
	}
}

// TestDeadlineHeader exercises X-Deadline-Ms: malformed → 400,
// exhausted budget → 504 without touching the engine, and a small
// budget clamps the request deadline (504 when the engine is slower).
func TestDeadlineHeader(t *testing.T) {
	faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{Mode: faultinject.Delay, Delay: 400 * time.Millisecond, Count: 1})
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{MaxBatch: 1})

	postWithDeadline := func(budget string, seed int64) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/allocate",
			strings.NewReader(progenBody(t, 32, 0, seed)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(DeadlineHeader, budget)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return resp, blob
	}

	resp, blob := postWithDeadline("soon", 71)
	decodeErr(t, resp, blob, http.StatusBadRequest, "invalid")

	resp, blob = postWithDeadline("0", 72)
	decodeErr(t, resp, blob, http.StatusGatewayTimeout, "timeout")

	resp, blob = postWithDeadline("-5", 73)
	decodeErr(t, resp, blob, http.StatusGatewayTimeout, "timeout")

	// 50ms of budget against a 400ms engine delay: the clamped deadline
	// expires mid-allocation and the engine degrades to its static
	// partition (the PR-2 failure model) — proof the header reached the
	// engine context. Under -race the budget can instead expire before
	// the engine starts, which surfaces as the pre-engine 504; either
	// outcome proves the clamp.
	resp, blob = postWithDeadline("50", 74)
	if resp.StatusCode == http.StatusGatewayTimeout {
		decodeErr(t, resp, blob, http.StatusGatewayTimeout, "timeout")
		return
	}
	out := decodeOK(t, resp, blob)
	if !out.Degraded || !strings.Contains(out.Cause, "deadline") {
		t.Fatalf("Degraded=%v Cause=%q, want a deadline-degraded result under a 50ms budget", out.Degraded, out.Cause)
	}
}

// TestTenantHeaderBounds checks an oversized X-Tenant is a 400 (tenant
// strings key metric labels and queue memory).
func TestTenantHeaderBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/allocate",
		strings.NewReader(progenBody(t, 32, 0, 75)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, strings.Repeat("x", maxTenantLen+1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for an oversized tenant header", resp.StatusCode)
	}
}

// TestBadPriority400 checks an unknown priority class is refused as
// invalid by wire validation.
func TestBadPriority400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"priority":"urgent","threads":[{"progen":{"seed":76}}],"nreg":32}`
	resp, blob := post(t, ts.URL, body)
	decodeErr(t, resp, blob, http.StatusBadRequest, "invalid")
}

// TestPerTenantMetrics posts under two tenants and checks the
// per-tenant admitted/completed counters and the rendered series.
func TestPerTenantMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i, tenant := range []string{"alice", "alice", "bob"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/allocate",
			strings.NewReader(progenBody(t, 32, 0, 80+int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %s request %d: status %d", tenant, i, resp.StatusCode)
		}
	}

	snap := s.Metrics()
	if snap.TenantAdmitted["alice"] != 2 || snap.TenantAdmitted["bob"] != 1 {
		t.Fatalf("TenantAdmitted = %v, want alice:2 bob:1", snap.TenantAdmitted)
	}
	if snap.TenantCompleted["alice"] != 2 || snap.TenantCompleted["bob"] != 1 {
		t.Fatalf("TenantCompleted = %v, want alice:2 bob:1", snap.TenantCompleted)
	}
	if snap.ServiceEWMA <= 0 {
		t.Fatalf("ServiceEWMA = %v, want > 0 after served jobs", snap.ServiceEWMA)
	}
	if snap.RetryAfterS < 1 {
		t.Fatalf("RetryAfterS = %d, want >= 1", snap.RetryAfterS)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`npserve_tenant_admitted_total{tenant="alice"} 2`,
		`npserve_tenant_completed_total{tenant="bob"} 1`,
		"npserve_service_time_ewma_ms",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestTenantLabelsBounded sends 10^4 distinct tenants: the per-tenant
// counter maps and the /metrics exposition must stay bounded, with the
// overflow counted under tenant="other".
func TestTenantLabelsBounded(t *testing.T) {
	const tenants = 10000
	s, _ := newTestServer(t, Config{})
	body := progenBody(t, 32, 0, 81)
	scrape := func() []string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	}
	before := len(scrape())
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("t%d", i)
		req := httptest.NewRequest(http.MethodPost, "/allocate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, tenant)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("tenant %s: status %d", tenant, rec.Code)
		}
		// Past the first request every repeat is a cached join, which
		// counts a completion but no admission; drive the admission and
		// refusal counters directly rather than running the engine or
		// wedging it 10^4 times.
		s.metrics.tenantAdmitted(tenant)
		s.metrics.overloadReason(tenant, admitQueueFull)
	}

	s.metrics.mu.Lock()
	sizes := []int{len(s.metrics.tenantAdmit), len(s.metrics.tenantComplete), len(s.metrics.tenantOverloads)}
	s.metrics.mu.Unlock()
	for i, n := range sizes {
		if n > maxTenantLabels+1 {
			t.Errorf("tenant map %d holds %d keys, want <= %d", i, n, maxTenantLabels+1)
		}
	}
	snap := s.Metrics()
	if want := int64(tenants - maxTenantLabels); snap.TenantAdmitted[otherTenant] != want || snap.TenantCompleted[otherTenant] != want {
		t.Errorf("other: admitted %d completed %d, want %d each", snap.TenantAdmitted[otherTenant], snap.TenantCompleted[otherTenant], want)
	}
	if snap.TenantCompleted["t0"] != 1 || snap.TenantOverloads[otherTenant] != int64(tenants-maxTenantLabels) {
		t.Errorf("t0 completed %d, other refused %d: want 1 and %d", snap.TenantCompleted["t0"], snap.TenantOverloads[otherTenant], tenants-maxTenantLabels)
	}
	// Three tenant series of at most maxTenantLabels+1 labels each, plus
	// the first code="200" and reason="queue_full" series.
	if after := len(scrape()); after > before+2+3*(maxTenantLabels+1) {
		t.Errorf("/metrics grew from %d to %d lines over %d tenants", before, after, tenants)
	}
}

// TestShedMetricsReason wedges the engine, drives a low-priority
// request into the shed tier, and checks the refusal is accounted
// under its reason and tenant.
func TestShedMetricsReason(t *testing.T) {
	faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{Mode: faultinject.Delay, Delay: 400 * time.Millisecond, Count: 1})
	t.Cleanup(faultinject.Reset)
	// MaxQueue 4, low sheds at depth 2 (frac 0.5).
	s, ts := newTestServer(t, Config{MaxQueue: 4, MaxBatch: 1, ShedLowFrac: 0.5})

	done := make(chan struct{}, 3)
	launch := func(seed int64) {
		go func() {
			defer func() { done <- struct{}{} }()
			resp, err := http.Post(ts.URL+"/allocate", "application/json",
				strings.NewReader(progenBody(t, 32, 0, seed)))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	launch(90) // wedged in the engine
	waitFor(t, "the engine to pick up the first job", func() bool {
		snap := s.Metrics()
		return snap.Batches == 1 && snap.QueueDepth == 0
	})
	launch(91)
	launch(92)
	waitFor(t, "the backlog to reach the low-shed tier", func() bool { return s.Metrics().QueueDepth == 2 })

	// Low priority is shed at depth 2; normal still fits.
	lowBody := `{"priority":"low","threads":[{"progen":{"seed":93}}],"nreg":32}`
	resp, blob := post(t, ts.URL, lowBody)
	decodeErr(t, resp, blob, http.StatusTooManyRequests, "overload")

	snap := s.Metrics()
	if snap.Sheds[admitShedLow] != 1 {
		t.Errorf("Sheds = %v, want %s:1", snap.Sheds, admitShedLow)
	}
	if snap.TenantOverloads[defaultTenant] != 1 {
		t.Errorf("TenantOverloads = %v, want default:1", snap.TenantOverloads)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
}
