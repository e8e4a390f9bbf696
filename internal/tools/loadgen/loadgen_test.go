package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"npra/internal/faultinject"
	"npra/internal/serve"
)

// startServer serves an in-process npserve through h (nil: directly)
// for the rest of the test.
func startServer(t *testing.T, cfg serve.Config, h func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s := serve.New(cfg)
	handler := s.Handler()
	if h != nil {
		handler = h(handler)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return ts
}

func TestRunAgainstInProcessServer(t *testing.T) {
	ts := startServer(t, serve.Config{}, nil)
	rep, err := Run(context.Background(), Options{
		URL:         ts.URL,
		Concurrency: 4,
		MaxRequests: 40,
		DupRatio:    0.5,
		Duration:    30 * time.Second, // budget trips first
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 {
		t.Errorf("requests = %d, want 40", rep.Requests)
	}
	if rep.ByCode["200"] != 40 {
		t.Errorf("by_code = %v, want all 200s", rep.ByCode)
	}
	if rep.FiveXX != 0 || rep.TransportErrs != 0 {
		t.Errorf("fiveXX=%d transport=%d, want 0/0", rep.FiveXX, rep.TransportErrs)
	}
	if rep.P50MS <= 0 || rep.P99MS < rep.P50MS || rep.MaxMS < rep.P99MS {
		t.Errorf("latency ordering broken: p50=%v p99=%v max=%v", rep.P50MS, rep.P99MS, rep.MaxMS)
	}
	if rep.SingleflightHitRate <= 0 {
		t.Errorf("hit rate %v at dup 0.5, want > 0", rep.SingleflightHitRate)
	}
	if rep.Metrics["npserve_latency_ms_count"] != 40 {
		t.Errorf("scraped latency count = %v, want 40", rep.Metrics["npserve_latency_ms_count"])
	}
	if err := rep.Check(0, 0.01, -1); err != nil {
		t.Errorf("Check: %v", err)
	}
	if err := rep.Check(0, 0.9999, -1); err == nil {
		t.Error("Check accepted an unreachable dedup floor")
	}
	if err := rep.Check(0, -1, rep.P99MS+1); err != nil {
		t.Errorf("Check rejected a satisfied p99 ceiling: %v", err)
	}
	if err := rep.Check(0, -1, rep.P99MS/2); err == nil {
		t.Error("Check accepted a p99 above the ceiling")
	}
}

// TestRunDurationDropsCutRequests cuts a Duration-bounded run while
// every worker has a request in flight (each Solve is delayed well past
// the gap between the deadline and the last answer) and checks that the
// cut requests count neither as requests nor as transport errors.
func TestRunDurationDropsCutRequests(t *testing.T) {
	faultinject.Arm(faultinject.SiteSolve, faultinject.Plan{Mode: faultinject.Delay, Delay: 50 * time.Millisecond})
	t.Cleanup(faultinject.Reset)
	var started atomic.Int64
	ts := startServer(t, serve.Config{}, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/allocate" {
				started.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	rep, err := Run(context.Background(), Options{URL: ts.URL, Concurrency: 4, Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrs != 0 {
		t.Errorf("transport errors = %d: requests cut by the deadline were counted as errors", rep.TransportErrs)
	}
	if rep.Requests == 0 || rep.ByCode["200"] != rep.Requests {
		t.Errorf("requests = %d by code %v, want only answered 200s", rep.Requests, rep.ByCode)
	}
	if n := started.Load(); n <= rep.Requests {
		t.Errorf("server saw %d requests, the report counts %d: no request was in flight at the deadline", n, rep.Requests)
	}
	if err := rep.Check(0, -1, -1); err != nil {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Options{URL: "http://x", MaxRequests: 0}); err == nil {
		t.Error("Run accepted a run with no stop condition")
	}
	if _, err := Run(context.Background(), Options{MaxRequests: 1}); err == nil {
		t.Error("Run accepted an empty URL")
	}
}

func TestSpecDeterministic(t *testing.T) {
	opt := Options{Seed: 3}.withDefaults()
	if a, b := opt.spec(5), opt.spec(5); string(a) != string(b) {
		t.Error("spec is not deterministic")
	}
	if a, b := opt.spec(5), opt.spec(6); string(a) == string(b) {
		t.Error("distinct indices produced the same spec")
	}
}

func TestCheckEmptyReport(t *testing.T) {
	if err := (&Report{}).Check(0, -1, -1); err == nil {
		t.Error("Check accepted an empty report")
	}
}
