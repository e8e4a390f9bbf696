package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"

	"npra/internal/serve"
)

// TestRunAdversarialSmoke drives the heterogeneous adversarial stream
// against an in-process server squeezed to tiny cache tiers and checks
// the report invariants: every shape classified and served, no alias
// mismatches, eviction and relocation counters measured, and the gate
// plumbing wired through Check.
func TestRunAdversarialSmoke(t *testing.T) {
	s := serve.New(serve.Config{
		FuncCacheEntries: 8,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	rep, err := RunAdversarial(context.Background(), AdvOptions{
		URL:               ts.URL,
		WorkersPerProfile: 2,
		MaxRequests:       160,
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.AliasMismatches != 0 {
		t.Fatalf("alias mismatches = %d: cross-profile cache aliasing", rep.AliasMismatches)
	}
	if len(rep.ByShape) != len(advShapes) {
		t.Fatalf("by_shape has %d families, want %d: %+v", len(rep.ByShape), len(advShapes), rep.ByShape)
	}
	var classified int64
	for shape, sh := range rep.ByShape {
		if sh.OK+sh.Degraded == 0 {
			t.Errorf("shape %q never served: %+v", shape, *sh)
		}
		classified += sh.OK + sh.Degraded + sh.Shed + sh.Invalid + sh.Timeout + sh.FiveXX + sh.Transport
	}
	if classified != rep.Requests {
		t.Errorf("classification does not partition: %d classified of %d requests", classified, rep.Requests)
	}
	if rep.EvictionsPerReq == 0 {
		t.Error("evictions/request = 0: the tiny caches were never thrashed")
	}
	if rep.RewriteCacheHitRate == 0 {
		t.Error("rewrite-cache hit rate = 0: the hot pool never re-hit the rewrite tier")
	}
	// The gates themselves, at the thresholds serve-bench-adv ships.
	if err := rep.Check(0, 0.9, 8, -1, -1); err != nil {
		t.Errorf("gates failed: %v", err)
	}
	// And the failure paths stay failures.
	if err := rep.Check(0, -1, 0.000001, -1, -1); err == nil {
		t.Error("an absurd eviction ceiling passed; the gate is not wired")
	}
}

// TestRunAdversarialValidation pins the option guards.
func TestRunAdversarialValidation(t *testing.T) {
	if _, err := RunAdversarial(context.Background(), AdvOptions{}); err == nil {
		t.Error("no URL accepted")
	}
	if _, err := RunAdversarial(context.Background(), AdvOptions{URL: "http://127.0.0.1:1"}); err == nil {
		t.Error("no budget accepted")
	}
}
