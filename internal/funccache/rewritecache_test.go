package funccache

// Cached-vs-direct differential for the records' rewrites: an
// allocation whose rewrite phase is served from a Cache (by pointer or by
// relocation) must be bit-identical to one whose rewriter ran directly
// — grants, costs, textual rewrites and interpreter behavior. Serially
// over 100 seeded mix requests for ARA, over the SRA sweep, and
// concurrently (for -race) with duplicate kernels interleaved across
// goroutines. The mutation canary pins the safety side: every cached
// body is frozen, and a frozen body refuses Build and RenumberRegs.

import (
	"sync"
	"testing"

	"npra/internal/core"
	"npra/internal/intra"
	"npra/internal/ir"
	"npra/internal/progen"
)

// TestRewriteCachedDifferentialARA drives 100 mix requests through a
// shared rewrite cache and checks every one against a direct run (no
// cache) of the same request.
func TestRewriteCachedDifferentialARA(t *testing.T) {
	rc := New(Config{})
	for i := int64(0); i < 100; i++ {
		funcs := mixFuncs(i, 8)
		direct, directErr := core.AllocateARA(funcs, core.Config{NReg: 32})
		cached, cachedErr := core.AllocateARA(funcs, core.Config{NReg: 32, RewriteCache: rc})
		if (directErr == nil) != (cachedErr == nil) {
			t.Fatalf("request %d: direct err %v vs cached err %v", i, directErr, cachedErr)
		}
		if directErr != nil {
			continue
		}
		if err := diffAllocs(direct, cached); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for ti, th := range cached.Threads {
			if !th.F.Frozen() {
				t.Fatalf("request %d thread %d: cache-managed body is not frozen", i, ti)
			}
		}
	}
	st := rc.Stats()
	if st.RewriteHits+st.RewriteRelocHits == 0 {
		t.Errorf("stats = %+v: the cached runs never hit the rewrite cache, differential proved nothing", st)
	}
}

// TestRewriteCachedDifferentialSRA covers the homogeneous-threads entry
// point: the symmetric sweep's winner rewrites through the same cache.
func TestRewriteCachedDifferentialSRA(t *testing.T) {
	rc := New(Config{})
	for i := int64(0); i < 12; i++ {
		funcs := mixFuncs(3*i, 8) // single-thread compositions pick the kernel
		f := funcs[0]
		nthd := 2 + int(i)%3
		direct, directErr := core.AllocateSRA(f, nthd, core.Config{NReg: 32})
		cached, cachedErr := core.AllocateSRA(f, nthd, core.Config{NReg: 32, RewriteCache: rc})
		if (directErr == nil) != (cachedErr == nil) {
			t.Fatalf("request %d: direct err %v vs cached err %v", i, directErr, cachedErr)
		}
		if directErr != nil {
			continue
		}
		if err := diffAllocs(direct, cached); err != nil {
			t.Fatalf("request %d (nthd %d): %v", i, nthd, err)
		}
	}
}

// TestRewriteCachedDifferentialConcurrent interleaves duplicate kernels
// across goroutines against the production wiring — one Cache serving
// as both the function and the rewrite source — with a tight entry
// bound so relocation, insertion and eviction race. The -race
// regression for frozen pointer sharing.
func TestRewriteCachedDifferentialConcurrent(t *testing.T) {
	cache := New(Config{Entries: 6, MaxIdle: 2})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 15; i++ {
				req := (int64(w) + i) % 20
				funcs := mixFuncs(req, 4)
				direct, directErr := core.AllocateARA(funcs, core.Config{NReg: 32, Workers: 2})
				cached, cachedErr := core.AllocateARA(funcs, core.Config{NReg: 32, Workers: 2, FuncCache: cache, RewriteCache: cache})
				if (directErr == nil) != (cachedErr == nil) {
					t.Errorf("worker %d request %d: direct err %v vs cached err %v", w, req, directErr, cachedErr)
					return
				}
				if directErr != nil {
					continue
				}
				if err := diffAllocs(direct, cached); err != nil {
					t.Errorf("worker %d request %d: %v", w, req, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := cache.Stats(); st.Entries > 6 || st.RewriteEntries > 6*RewritesPerBody {
		t.Errorf("Entries = %d, RewriteEntries = %d exceeds the bound", st.Entries, st.RewriteEntries)
	}
}

// TestRewriteCacheExactHitSharesPointer pins the tier's cheap path: the
// identical request served twice returns the same *ir.Func values, by
// pointer, with no fresh rewriting.
func TestRewriteCacheExactHitSharesPointer(t *testing.T) {
	rc := New(Config{})
	funcs := mixFuncs(7, 8)
	first, err := core.AllocateARA(funcs, core.Config{NReg: 32, RewriteCache: rc})
	if err != nil {
		t.Fatal(err)
	}
	misses := rc.Stats().RewriteMisses
	second, err := core.AllocateARA(funcs, core.Config{NReg: 32, RewriteCache: rc})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Threads {
		if first.Threads[i].F != second.Threads[i].F {
			t.Errorf("thread %d: repeat allocation did not share the cached body pointer", i)
		}
	}
	st := rc.Stats()
	if st.RewriteMisses != misses {
		t.Errorf("repeat allocation missed the cache: %+v", st)
	}
	if st.RewriteHits == 0 {
		t.Errorf("repeat allocation recorded no exact hits: %+v", st)
	}
}

// smallBuiltFunc emits a three-register straight-line function through
// the builder (so it arrives built, like a rewriter product).
func smallBuiltFunc(t *testing.T) *ir.Func {
	t.Helper()
	return namedBuiltFunc(t, "rwunit")
}

// namedBuiltFunc is smallBuiltFunc under another name, so another key.
func namedBuiltFunc(t *testing.T, name string) *ir.Func {
	t.Helper()
	bu := ir.NewBuilder(name)
	bu.Label("entry")
	a := bu.Set(1)
	b := bu.Set(2)
	bu.Op3(ir.OpAdd, a, b)
	bu.Halt()
	return bu.MustFinish()
}

// TestRewriteCacheUnit exercises a record's rewrites directly: identity
// palettes come back as the canonical pointer, foreign palettes
// relocate with remapped registers, repeats are exact hits, and the
// entry bound evicts.
func TestRewriteCacheUnit(t *testing.T) {
	key := smallBuiltFunc(t).Key()
	canonical := smallBuiltFunc(t)
	rc := New(Config{Entries: 4})

	// pr=2: colors 0,1 private at base 0, color 2 shared at base 2 — the
	// identity palette, so StoreRewrite returns the canonical itself.
	body := rc.StoreRewrite(key, 2, 1, 0, 2, canonical, intra.RewriteStats{})
	if body != canonical {
		t.Fatal("identity palette did not return the canonical body")
	}
	if !canonical.Frozen() {
		t.Fatal("stored canonical is not frozen")
	}

	// An identity-palette lookup serves the canonical pointer itself (a
	// relocation hit whose relocation is free — no exact entry needed).
	hit, _, ok := rc.LookupRewrite(key, 2, 1, 0, 2)
	if !ok || hit != canonical {
		t.Fatalf("identity lookup: ok=%v, pointer match=%v", ok, hit == canonical)
	}

	// A foreign palette relocates: private base 10, shared base 20.
	reloc, _, ok := rc.LookupRewrite(key, 2, 1, 10, 20)
	if !ok {
		t.Fatal("canonical present but relocation lookup missed")
	}
	if reloc == canonical {
		t.Fatal("foreign palette returned the canonical body unrelocated")
	}
	if !reloc.Frozen() {
		t.Fatal("relocated body is not frozen")
	}
	if want := 21; reloc.NumRegs != want {
		t.Errorf("relocated NumRegs = %d, want %d", reloc.NumRegs, want)
	}
	again, _, ok := rc.LookupRewrite(key, 2, 1, 10, 20)
	if !ok || again != reloc {
		t.Errorf("repeat foreign lookup: ok=%v, pointer match=%v (want exact hit)", ok, again == reloc)
	}

	st := rc.Stats()
	if st.RewriteHits != 1 || st.RewriteRelocHits != 2 || st.RewriteEntries != 2 || st.RewriteBytes <= 0 {
		t.Errorf("stats = %+v, want 1 exact hit, 2 reloc hits, 2 entries, positive bytes", st)
	}

	// An unseen tuple misses.
	if _, _, ok := rc.LookupRewrite(key, 1, 2, 0, 1); ok {
		t.Error("unseen (pr, sr) tuple hit the cache")
	}

	// A bound of one body evicts the older body with its rewrites.
	tight := New(Config{Entries: 1})
	tight.StoreRewrite(key, 2, 1, 0, 2, smallBuiltFunc(t), intra.RewriteStats{})
	tight.StoreRewrite(namedBuiltFunc(t, "rwother").Key(), 1, 2, 0, 1, smallBuiltFunc(t), intra.RewriteStats{})
	st = tight.Stats()
	if st.RewriteEntries != 1 || st.RewriteEvictions == 0 {
		t.Errorf("tight cache stats = %+v, want 1 entry and evictions", st)
	}
}

// TestEvictedRecordDropsRewrites: a body's rewrites live in its record,
// so evicting the record drops them with the analysis and the pool. A
// later lookup for that body misses, and every rewrite dropped with the
// record counts as a rewrite eviction.
func TestEvictedRecordDropsRewrites(t *testing.T) {
	c := New(Config{Entries: 1, Shards: 1})
	cfg := core.Config{NReg: 32, FuncCache: c, RewriteCache: c}
	fa := advFunc(t, progen.ShapeBoundary, 1)
	alloc, err := core.AllocateARA([]*ir.Func{fa}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	th := alloc.Threads[0]
	priv, shared := ir.Reg(th.PrivBase), ir.Reg(alloc.NReg-alloc.SGR)
	if _, _, ok := c.LookupRewrite(fa.Key(), th.PR, th.SR, priv, shared); !ok {
		t.Fatal("resident record did not serve its own rewrite")
	}
	held := c.Stats().RewriteEntries
	if _, err := core.AllocateARA([]*ir.Func{advFunc(t, progen.ShapeBoundary, 2)}, cfg); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.RewriteEvictions != held {
		t.Errorf("stats = %+v: want 1 record and its %d rewrites evicted", st, held)
	}
	if _, _, ok := c.LookupRewrite(fa.Key(), th.PR, th.SR, priv, shared); ok {
		t.Error("the evicted body's rewrite is still served")
	}
}

// TestRewritesPerBodyBound drives twice RewritesPerBody palettes of one
// grant through one resident body. Every new palette is a relocation
// hit, never a miss; at most RewritesPerBody rewrites stay resident;
// the canonical entry, touched by every exact hit, outlives the exact
// entries; and an evicted palette comes back by relocation.
func TestRewritesPerBodyBound(t *testing.T) {
	key := smallBuiltFunc(t).Key()
	canonical := smallBuiltFunc(t)
	c := New(Config{Entries: 1})
	c.StoreRewrite(key, 2, 1, 0, 2, canonical, intra.RewriteStats{})
	for i := 1; i <= 2*RewritesPerBody; i++ {
		priv, shared := ir.Reg(4*i), ir.Reg(4*i+2)
		relocs := c.Stats().RewriteRelocHits
		body, _, ok := c.LookupRewrite(key, 2, 1, priv, shared)
		st := c.Stats()
		if !ok || st.RewriteRelocHits != relocs+1 || st.RewriteMisses != 0 {
			t.Fatalf("palette %d: ok=%v, stats %+v: a new palette of a resident grant must relocate", i, ok, st)
		}
		if st.RewriteEntries > RewritesPerBody {
			t.Fatalf("palette %d: %d rewrites resident, bound %d", i, st.RewriteEntries, RewritesPerBody)
		}
		if again, _, ok := c.LookupRewrite(key, 2, 1, priv, shared); !ok || again != body {
			t.Fatalf("palette %d: repeat lookup ok=%v, pointer match=%v (want exact hit)", i, ok, again == body)
		}
	}
	st := c.Stats()
	if st.RewriteEntries != RewritesPerBody || st.RewriteEvictions != RewritesPerBody+1 {
		t.Errorf("stats = %+v: want %d rewrites resident and %d evicted", st, RewritesPerBody, RewritesPerBody+1)
	}
	if got, _, ok := c.LookupRewrite(key, 2, 1, 0, 2); !ok || got != canonical {
		t.Errorf("canonical entry lost: ok=%v, pointer match=%v", ok, got == canonical)
	}
	if _, _, ok := c.LookupRewrite(key, 2, 1, 4, 6); !ok || c.Stats().RewriteMisses != 0 {
		t.Errorf("evicted palette missed instead of relocating: ok=%v, stats %+v", ok, c.Stats())
	}
}

// TestFrozenFuncMutationCanary pins the immutability contract on cached
// bodies: Build errors out and RenumberRegs panics instead of silently
// corrupting a body other requests hold by pointer.
func TestFrozenFuncMutationCanary(t *testing.T) {
	f := smallBuiltFunc(t)
	f.Freeze()
	if !f.Frozen() {
		t.Fatal("Freeze did not stick")
	}
	if err := f.Build(); err == nil {
		t.Error("Build on a frozen func succeeded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RenumberRegs on a frozen func did not panic")
			}
		}()
		f.RenumberRegs()
	}()
}
