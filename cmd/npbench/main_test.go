package main

import "testing"

func TestList(t *testing.T) {
	if err := run(0, 0, false, false, false, true, false, false, 8, true, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSingleTables(t *testing.T) {
	if err := run(1, 0, false, false, false, false, false, false, 8, true, 0); err != nil {
		t.Errorf("table 1: %v", err)
	}
	if err := run(2, 0, false, false, false, false, false, false, 8, true, 0); err != nil {
		t.Errorf("table 2: %v", err)
	}
	if err := run(0, 14, false, false, false, false, false, false, 8, true, 0); err != nil {
		t.Errorf("figure 14: %v", err)
	}
}

func TestPhases(t *testing.T) {
	if err := run(0, 0, false, false, false, false, true, false, 8, true, 0); err != nil {
		t.Errorf("phases: %v", err)
	}
}

func TestPhasesWarm(t *testing.T) {
	if err := run(0, 0, false, false, false, false, true, true, 8, true, 0); err != nil {
		t.Errorf("phases -funccache: %v", err)
	}
}

func TestNothingToDo(t *testing.T) {
	if err := run(0, 0, false, false, false, false, false, false, 8, true, 0); err == nil {
		t.Errorf("no-op invocation accepted")
	}
}

// TestPhasesWarmRewriteGate pins the warm rewrite gate: with the
// function cache serving rewrites, the warm rewrite share passes the
// documented 40% ceiling (measured 1.2–4.1% over five runs at this
// packet count on a 2-core Xeon, Go 1.24); with -rewritecache=false the
// uncached rewrite costs 60–68% of warm wall-clock, so a 10% ceiling
// must reject it while still leaving the cached share a 2.4x margin.
func TestPhasesWarmRewriteGate(t *testing.T) {
	if err := run(0, 0, false, false, false, false, true, true, 8, true, 0.4); err != nil {
		t.Errorf("phases -funccache with rewrites cached: %v", err)
	}
	if err := run(0, 0, false, false, false, false, true, true, 8, false, 0.1); err == nil {
		t.Error("warm-rewrite-share gate passed with -rewritecache=false")
	}
}
