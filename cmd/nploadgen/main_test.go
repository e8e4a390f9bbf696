package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// gates returns a config with every gate off.
func gates() config {
	return config{max5xx: -1, minDedup: -1, maxP99MS: -1, minEventual: -1,
		fairTol: -1, maxRelocShare: -1, maxEvictPerReq: -1}
}

func TestRunInProcess(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	cfg := gates()
	cfg.inprocess, cfg.conc, cfg.requests, cfg.dup, cfg.report = true, 4, 60, 0.5, report
	cfg.max5xx, cfg.minDedup = 0, 0.05
	if err := run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	blob, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Requests int64            `json:"requests"`
		ByCode   map[string]int64 `json:"by_code"`
		P99MS    float64          `json:"p99_ms"`
		HitRate  float64          `json:"singleflight_hit_rate"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, blob)
	}
	if rep.Requests != 60 {
		t.Errorf("requests = %d, want 60", rep.Requests)
	}
	if rep.ByCode["200"] != 60 {
		t.Errorf("by_code = %v, want 60 clean 200s", rep.ByCode)
	}
	if rep.P99MS <= 0 {
		t.Errorf("p99 = %v, want > 0", rep.P99MS)
	}
	if rep.HitRate <= 0 {
		t.Errorf("hit rate = %v at dup 0.5, want > 0", rep.HitRate)
	}
}

func TestRunFailsDedupGate(t *testing.T) {
	// dup 0 with a cold cache cannot reach a 0.99 hit rate.
	cfg := gates()
	cfg.inprocess, cfg.conc, cfg.requests, cfg.minDedup = true, 2, 10, 0.99
	if err := run(cfg); err == nil {
		t.Fatal("run passed an unreachable dedup gate")
	}
}

func TestRunFailsP99Gate(t *testing.T) {
	// No real request completes in a microsecond.
	cfg := gates()
	cfg.inprocess, cfg.conc, cfg.requests, cfg.maxP99MS = true, 2, 10, 0.001
	if err := run(cfg); err == nil {
		t.Fatal("run passed an unreachable p99 gate")
	}
}

func TestRunNeedsTarget(t *testing.T) {
	cfg := gates()
	cfg.conc, cfg.requests = 1, 1
	if err := run(cfg); err == nil {
		t.Fatal("run accepted no URL without -inprocess")
	}
}
