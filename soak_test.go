package npra_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"npra/internal/banks"
	"npra/internal/core"
	"npra/internal/interp"
	"npra/internal/intra"
	"npra/internal/ir"
	"npra/internal/passes"
	"npra/internal/progen"
	"npra/internal/serve"
	"npra/internal/sim"
	"npra/internal/tools/loadgen"
)

// soakGuard gates every soak test behind -short uniformly: one skip
// policy, one message, so `go test -short ./...` reliably drops all of
// them and nothing slips in with an ad-hoc (or missing) guard.
func soakGuard(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
}

// TestSoakFullPipeline drives the complete toolchain — optimizer,
// cross-thread allocator, bank legalization, simulator — over larger
// randomly generated (always-halting) workloads and checks every safety
// and equivalence property on each. Skipped with -short.
func TestSoakFullPipeline(t *testing.T) {
	soakGuard(t)
	big := progen.StructuredConfig{
		MaxDepth: 3, MaxBodyLen: 14, MaxTripCnt: 4, MaxVars: 16,
		CSBDensity: 0.25, StoreWindow: 128,
	}
	for seed := int64(0); seed < 120; seed++ {
		seed := seed
		rng := rand.New(rand.NewSource(seed))

		// Four threads with disjoint memory windows.
		var funcs []*ir.Func
		for i := 0; i < 4; i++ {
			cfg := big
			cfg.StoreBase = int64(i * 256)
			f := progen.GenerateStructured(rng, cfg)

			opt, _, err := passes.Optimize(f)
			if err != nil {
				t.Fatalf("seed %d: optimize: %v", seed, err)
			}
			funcs = append(funcs, opt)
		}
		refs := make([]*ir.Func, len(funcs))
		for i, f := range funcs {
			refs[i] = f.Clone()
		}

		// Tight budget: just above the splitting lower bounds, so the
		// reduction loop and live-range splitting genuinely fire.
		sumMinPR, maxMinSR := 0, 0
		for _, f := range funcs {
			bd := intra.MustNew(f).Bounds()
			sumMinPR += bd.MinPR
			if sr := bd.MinR - bd.MinPR; sr > maxMinSR {
				maxMinSR = sr
			}
		}
		tight := sumMinPR + maxMinSR + 2
		tightAlloc, err := core.AllocateARA(funcs, core.Config{NReg: tight})
		if err != nil {
			t.Fatalf("seed %d: tight allocate (%d regs): %v", seed, tight, err)
		}
		if err := tightAlloc.Verify(); err != nil {
			t.Fatalf("seed %d: tight verify: %v", seed, err)
		}
		if tightAlloc.TotalRegisters() > tight {
			t.Fatalf("seed %d: tight allocation over budget", seed)
		}

		alloc, err := core.AllocateARA(funcs, core.Config{NReg: 128})
		if err != nil {
			t.Fatalf("seed %d: allocate: %v", seed, err)
		}
		if err := alloc.Verify(); err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}

		var allocated []*ir.Func
		var threads []*sim.Thread
		for _, th := range alloc.Threads {
			allocated = append(allocated, th.F)
			threads = append(threads, &sim.Thread{
				F: th.F, ProtectLo: th.PrivBase, ProtectHi: th.PrivBase + th.PR,
			})
		}

		// Bank legalization on top.
		banked, err := banks.Assign(allocated, banks.Config{BankSize: 64})
		if err != nil {
			t.Fatalf("seed %d: banks: %v", seed, err)
		}
		for i, bf := range banked.Funcs {
			if err := banks.Check(bf, 64); err != nil {
				t.Fatalf("seed %d thread %d: %v", seed, i, err)
			}
		}

		// Simulate the allocated threads together with protection armed.
		simRes, err := sim.Run(threads, sim.Config{NReg: 128, MemWords: 4096, MaxCycles: 5_000_000})
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}

		// Each thread's output region must match its single-thread
		// reference run (disjoint windows make this exact).
		for i, rf := range refs {
			mem := make([]uint32, 4096)
			r, err := interp.Run(rf, mem, interp.Options{TID: uint32(i), MaxSteps: 1 << 22})
			if err != nil || !r.Halted {
				t.Fatalf("seed %d thread %d: reference diverged", seed, i)
			}
			base := i * 256 / 4
			for w := 0; w < 128/4; w++ {
				if simRes.Mem[base+w] != mem[base+w] {
					t.Fatalf("seed %d thread %d: mem[%d] sim %#x != ref %#x",
						seed, i, (base+w)*4, simRes.Mem[base+w], mem[base+w])
				}
			}
			if !simRes.Threads[i].Halted {
				t.Fatalf("seed %d thread %d: did not halt in sim", seed, i)
			}
		}
	}
}

// TestSoakServe runs the allocation service under a sustained 30-second
// mixed load (half duplicates, varied shapes) and holds it to the
// serve-e2e gates: no transport errors, no 5xx, and a singleflight hit
// rate consistent with the duplicate ratio. Skipped with -short.
func TestSoakServe(t *testing.T) {
	soakGuard(t)
	s := serve.New(serve.Config{MaxQueue: 128})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		URL:         ts.URL,
		Concurrency: 8,
		Duration:    30 * time.Second,
		DupRatio:    0.5,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(0, 0.4, -1); err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 100 {
		t.Errorf("only %d requests in 30s; the service is unreasonably slow", rep.Requests)
	}
	t.Logf("soak: %d requests, %.1f rps, p50 %.2fms p99 %.2fms, dedup %.3f",
		rep.Requests, rep.ThroughputRPS, rep.P50MS, rep.P99MS, rep.SingleflightHitRate)
}

// TestSoakAdversarial holds the adversarial workload — cache-hostile
// shapes under heterogeneous hardware profiles — against a server with
// tiny cache tiers for 20 seconds. The gates are the serve-bench-adv
// set: zero cross-profile aliasing, every shape served, bounded
// relocation share and eviction thrash. Skipped with -short.
func TestSoakAdversarial(t *testing.T) {
	soakGuard(t)
	s := serve.New(serve.Config{
		MaxQueue:         128,
		FuncCacheEntries: 8,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	rep, err := loadgen.RunAdversarial(context.Background(), loadgen.AdvOptions{
		URL:               ts.URL,
		WorkersPerProfile: 2,
		Duration:          20 * time.Second,
		Seed:              42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(0, 0.9, 8, -1, 0.6); err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 100 {
		t.Errorf("only %d requests in 20s; the service is unreasonably slow", rep.Requests)
	}
	t.Logf("adversarial soak: %d requests, %.1f rps, reloc share %.3f, evict/req %.2f, fairness dev %.3f, p99 %.2fms",
		rep.Requests, rep.ThroughputRPS, rep.RelocShare, rep.EvictionsPerReq, rep.FairnessDev, rep.P99MS)
}
