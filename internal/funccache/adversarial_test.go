package funccache

// Adversarial-workload differentials and eviction-thrash regressions:
// the cache hierarchy must stay bit-identical to the direct engine when
// the workload is built to defeat it — deep trampoline chains,
// boundary-dense bodies, palette-thrashing budgets and near-collision
// families — and the tiers must stay deterministic and bounded when
// capacity is squeezed to 1–2 entries so every request evicts.

import (
	"fmt"
	"testing"

	"npra/internal/core"
	"npra/internal/ir"
	"npra/internal/progen"
)

// advCfg keeps adversarial bodies small enough that the 100-seed sweep
// stays fast under -race while still exercising every shape's hostile
// structure.
var advCfg = progen.StructuredConfig{
	MaxDepth: 2, MaxBodyLen: 4, MaxTripCnt: 3, MaxVars: 6,
	CSBDensity: 0.3, StoreWindow: 64,
}

// advFunc materializes one adversarial body from a small seed pool so
// the cached run sees hits, evict-rebuild cycles and relocations.
func advFunc(t *testing.T, shape progen.Shape, seed int64) *ir.Func {
	t.Helper()
	f, err := progen.FromSeedShape(shape, seed, advCfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", shape, seed, err)
	}
	f.Name = fmt.Sprintf("%s%d", shape, seed)
	return f
}

// TestAdversarialCachedDifferential is the acceptance-criteria sweep:
// for every adversarial generator, 100 seeded requests through the
// production cache wiring (one deliberately tiny function cache whose
// records also hold the rewrites) must match a direct, cache-free run
// bit for bit — grants, textual rewrites and interpreter behavior
// (diffAllocs) — and
// the caches must actually have been stressed (hits AND evictions).
func TestAdversarialCachedDifferential(t *testing.T) {
	for _, shape := range progen.Shapes() {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			cache := New(Config{Entries: 4, MaxIdle: 1, Shards: 1})
			for i := int64(0); i < 100; i++ {
				// A fixed hot request (so both the function tier and the
				// budget-keyed rewrite tier see genuine reuse) alternates
				// with churn requests over 12 distinct bodies and shifting
				// register files, which grind the tiny caches through
				// eviction between every hot reuse.
				funcs := []*ir.Func{advFunc(t, shape, 0), advFunc(t, shape, 1)}
				nreg := 32
				if i%2 == 1 {
					funcs = []*ir.Func{
						advFunc(t, shape, 3+(i/2)%5),
						advFunc(t, shape, 8+(i/2)%7),
					}
					nreg = 16 + int(i/2%2)*32 // heterogeneous profiles: 16/48
				}
				direct, directErr := core.AllocateARA(funcs, core.Config{NReg: nreg})
				cached, cachedErr := core.AllocateARA(funcs, core.Config{NReg: nreg, FuncCache: cache, RewriteCache: cache})
				if (directErr == nil) != (cachedErr == nil) {
					t.Fatalf("request %d: direct err %v vs cached err %v", i, directErr, cachedErr)
				}
				if directErr != nil {
					continue
				}
				if err := diffAllocs(direct, cached); err != nil {
					t.Fatalf("request %d (nreg %d): %v", i, nreg, err)
				}
			}
			st := cache.Stats()
			if st.Hits == 0 || st.RewriteHits+st.RewriteRelocHits == 0 {
				t.Errorf("caches never hit (%+v): differential proved nothing", st)
			}
			if st.Evictions == 0 || st.RewriteEvictions == 0 {
				t.Errorf("caches never evicted (%+v): thrash regime not reached", st)
			}
		})
	}
}

// TestFuncCacheEvictionThrashCap pins determinism and metric sanity at
// capacities 1 and 2 on a single shard: the same request stream run
// twice against fresh caches produces identical counters, evictions
// grow monotonically, Entries never exceeds the cap and Bytes never
// goes negative.
func TestFuncCacheEvictionThrashCap(t *testing.T) {
	for _, capn := range []int{1, 2} {
		t.Run(fmt.Sprintf("cap%d", capn), func(t *testing.T) {
			run := func() (Stats, []Stats) {
				c := New(Config{Entries: capn, Shards: 1, MaxIdle: 1})
				var trace []Stats
				prev := int64(0)
				for i := int64(0); i < 20; i++ {
					exercise(t, c, advFunc(t, progen.ShapePalette, i%4), true)
					st := c.Stats()
					if st.Evictions < prev {
						t.Fatalf("step %d: evictions regressed %d -> %d", i, prev, st.Evictions)
					}
					prev = st.Evictions
					if st.Entries > int64(capn) {
						t.Fatalf("step %d: %d entries exceeds cap %d", i, st.Entries, capn)
					}
					if st.Bytes < 0 {
						t.Fatalf("step %d: Bytes = %d went negative", i, st.Bytes)
					}
					trace = append(trace, st)
				}
				return c.Stats(), trace
			}
			a, ta := run()
			b, tb := run()
			if a != b {
				t.Errorf("run-twice stats differ: %+v vs %+v", a, b)
			}
			for i := range ta {
				if ta[i] != tb[i] {
					t.Errorf("step %d stats differ across runs: %+v vs %+v", i, ta[i], tb[i])
				}
			}
			if a.Evictions == 0 {
				t.Errorf("stats = %+v: a 4-body stream over cap %d never evicted", a, capn)
			}
		})
	}
}

// TestFuncCacheNoStaleReuseAfterEviction pins the eviction race from
// the checkin contract: an allocator checked out before its entry was
// evicted and rebuilt must be discarded at checkin (its memo Contexts
// point into the dead analysis), never pooled into the new entry.
func TestFuncCacheNoStaleReuseAfterEviction(t *testing.T) {
	c := New(Config{Entries: 1, Shards: 1, MaxIdle: 2})
	fa := advFunc(t, progen.ShapeBoundary, 1)
	exercise(t, c, fa, true) // install A with one pooled allocator

	al, checkin, err := c.Checkout(fa, fa.Key()) // hold A's warm allocator out
	if err != nil {
		t.Fatal(err)
	}
	oldAnalysis := al.A
	exercise(t, c, advFunc(t, progen.ShapeBoundary, 2), true) // evicts A
	exercise(t, c, fa, true)                                  // rebuilds A with a fresh analysis

	preDiscards := c.Stats().Discards
	checkin(true) // stale: analysis mismatch, must be dropped
	st := c.Stats()
	if st.Discards != preDiscards+1 {
		t.Fatalf("Discards = %d, want %d: stale allocator was not discarded", st.Discards, preDiscards+1)
	}

	al2, checkin2, err := c.Checkout(fa, fa.Key())
	if err != nil {
		t.Fatal(err)
	}
	if al2.A == oldAnalysis {
		t.Error("checkout after evict+rebuild returned the stale analysis")
	}
	checkin2(true)
}

// TestRewriteCacheEvictionThrashTiny squeezes the cache to 1–2 bodies
// so every allocation evicts a record and the rewrites it holds: the
// same stream run twice stays bit-identical (diffAllocs against a
// direct run each step), counters replay exactly, evictions are
// monotone, entries stay within the bound and bytes track live entries
// without going negative.
func TestRewriteCacheEvictionThrashTiny(t *testing.T) {
	for _, capn := range []int{1, 2} {
		t.Run(fmt.Sprintf("cap%d", capn), func(t *testing.T) {
			run := func() Stats {
				rc := New(Config{Entries: capn, Shards: 1})
				prev := int64(0)
				for i := int64(0); i < 16; i++ {
					funcs := []*ir.Func{advFunc(t, progen.ShapeTrampoline, i%4)}
					direct, err := core.AllocateARA(funcs, core.Config{NReg: 32})
					if err != nil {
						t.Fatal(err)
					}
					cached, err := core.AllocateARA(funcs, core.Config{NReg: 32, FuncCache: rc, RewriteCache: rc})
					if err != nil {
						t.Fatal(err)
					}
					if derr := diffAllocs(direct, cached); derr != nil {
						t.Fatalf("request %d: %v", i, derr)
					}
					st := rc.Stats()
					if st.RewriteEvictions < prev {
						t.Fatalf("step %d: evictions regressed %d -> %d", i, prev, st.RewriteEvictions)
					}
					prev = st.RewriteEvictions
					if st.Entries > int64(capn) || st.RewriteEntries > int64(capn*RewritesPerBody) {
						t.Fatalf("step %d: %d bodies, %d rewrites exceeds cap %d", i, st.Entries, st.RewriteEntries, capn)
					}
					if st.RewriteBytes < 0 {
						t.Fatalf("step %d: RewriteBytes = %d went negative", i, st.RewriteBytes)
					}
				}
				return rc.Stats()
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("run-twice stats differ: %+v vs %+v", a, b)
			}
			if a.RewriteEvictions == 0 {
				t.Errorf("stats = %+v: stream over cap %d never evicted", a, capn)
			}
		})
	}
}

// TestRewriteCacheNoStaleReuseAfterEviction holds a pointer served by
// the rewrite cache across an eviction storm and verifies the old body
// is immutable (still frozen, same text) and the re-populated entry
// serves an equivalent body rather than resurrecting the dead pointer's
// storage mutated in place.
func TestRewriteCacheNoStaleReuseAfterEviction(t *testing.T) {
	rc := New(Config{Entries: 1, Shards: 1})
	funcs := []*ir.Func{advFunc(t, progen.ShapeNearCollision, 5)}
	first, err := core.AllocateARA(funcs, core.Config{NReg: 32, RewriteCache: rc})
	if err != nil {
		t.Fatal(err)
	}
	held := first.Threads[0].F
	heldText := held.Format()
	if !held.Frozen() {
		t.Fatal("cache-served body is not frozen")
	}
	for i := int64(6); i < 10; i++ { // storm: each run evicts the last
		if _, err := core.AllocateARA([]*ir.Func{advFunc(t, progen.ShapeNearCollision, i)}, core.Config{NReg: 32, RewriteCache: rc}); err != nil {
			t.Fatal(err)
		}
	}
	again, err := core.AllocateARA(funcs, core.Config{NReg: 32, RewriteCache: rc})
	if err != nil {
		t.Fatal(err)
	}
	if held.Format() != heldText {
		t.Error("evicted rewrite body mutated after eviction")
	}
	if got := again.Threads[0].F.Format(); got != heldText {
		t.Errorf("re-populated entry rewrote differently:\n%s\nvs\n%s", got, heldText)
	}
}
