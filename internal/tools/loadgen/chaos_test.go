package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"npra/internal/faultinject"
	"npra/internal/resilience"
	"npra/internal/serve"
)

// TestRunChaos drives a short soak through every fault kind at once
// and checks the classification invariants: the three terminal classes
// partition the calls, the client survives to the availability gate,
// and no 400/422 was ever retried.
func TestRunChaos(t *testing.T) {
	s := serve.New(serve.Config{})
	backend := httptest.NewServer(s.Handler())
	defer func() {
		backend.Close()
		s.Close()
	}()
	proxy := faultinject.NewChaosProxy(backend.URL, faultinject.ChaosConfig{
		ResetRate:    0.1,
		TruncateRate: 0.1,
		GarbleRate:   0.1,
		BurstEvery:   10,
		BurstLen:     2,
	})
	front := httptest.NewServer(proxy)
	defer front.Close()

	rep, err := RunChaos(context.Background(), ChaosOptions{
		URL:         front.URL,
		DirectURL:   backend.URL,
		MaxRequests: 80,
		TenantWorkers: map[string]int{
			"a": 3,
			"b": 3,
		},
		Resilience: resilience.Config{
			MaxAttempts: 8,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if rep.Calls != 80 {
		t.Fatalf("calls = %d, want 80", rep.Calls)
	}
	if got := rep.FirstTryOK + rep.RetriedOK + rep.HardFailed; got != rep.Calls {
		t.Fatalf("classes don't partition: %d+%d+%d != %d",
			rep.FirstTryOK, rep.RetriedOK, rep.HardFailed, rep.Calls)
	}
	if rep.RetriedOK == 0 {
		t.Error("no retried-then-succeeded calls under 30%+ fault rates — the retry path never ran")
	}
	if rep.BadRetries != 0 {
		t.Errorf("bad retries = %d (triggers %v), want 0", rep.BadRetries, rep.RetriesByTrigger)
	}
	if rep.TenantOK["a"]+rep.TenantOK["b"] != rep.FirstTryOK+rep.RetriedOK {
		t.Errorf("tenant successes %v don't sum to the success classes", rep.TenantOK)
	}
	// Loose availability floor for a short run: the 8-attempt budget
	// should clear ~32% per-attempt fault odds with room to spare.
	if err := rep.Check(0.99, -1, -1); err != nil {
		t.Errorf("availability check: %v", err)
	}
	if len(rep.Metrics) == 0 {
		t.Error("backend metrics scrape came back empty")
	}
}
