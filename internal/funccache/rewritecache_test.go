package funccache

// Cached-vs-direct differential for the rewrite tier: an allocation
// whose rewrite phase is served from a RewriteCache (by pointer or by
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
)

// TestRewriteCachedDifferentialARA drives 100 mix requests through a
// shared rewrite cache and checks every one against a direct run (no
// cache) of the same request.
func TestRewriteCachedDifferentialARA(t *testing.T) {
	rc := NewRewriteCache(RewriteConfig{})
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
	if st.Hits+st.RelocHits == 0 {
		t.Errorf("stats = %+v: the cached runs never hit the rewrite cache, differential proved nothing", st)
	}
}

// TestRewriteCachedDifferentialSRA covers the homogeneous-threads entry
// point: the symmetric sweep's winner rewrites through the same cache.
func TestRewriteCachedDifferentialSRA(t *testing.T) {
	rc := NewRewriteCache(RewriteConfig{})
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
// across goroutines against the production wiring — one function cache
// feeding one rewrite cache, both keyed by core.FuncKey — with a tight
// entry bound so relocation, insertion and eviction race. The -race
// regression for frozen pointer sharing.
func TestRewriteCachedDifferentialConcurrent(t *testing.T) {
	cache := New(Config{Entries: 6, MaxIdle: 2})
	rc := NewRewriteCache(RewriteConfig{Entries: 8})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < 15; i++ {
				req := (int64(w) + i) % 20
				funcs := mixFuncs(req, 4)
				direct, directErr := core.AllocateARA(funcs, core.Config{NReg: 32, Workers: 2})
				cached, cachedErr := core.AllocateARA(funcs, core.Config{NReg: 32, Workers: 2, FuncCache: cache, RewriteCache: rc})
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
	if st := rc.Stats(); st.Entries > 8 {
		t.Errorf("Entries = %d exceeds the bound", st.Entries)
	}
}

// TestRewriteCacheExactHitSharesPointer pins the tier's cheap path: the
// identical request served twice returns the same *ir.Func values, by
// pointer, with no fresh rewriting.
func TestRewriteCacheExactHitSharesPointer(t *testing.T) {
	rc := NewRewriteCache(RewriteConfig{})
	funcs := mixFuncs(7, 8)
	first, err := core.AllocateARA(funcs, core.Config{NReg: 32, RewriteCache: rc})
	if err != nil {
		t.Fatal(err)
	}
	misses := rc.Stats().Misses
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
	if st.Misses != misses {
		t.Errorf("repeat allocation missed the cache: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("repeat allocation recorded no exact hits: %+v", st)
	}
}

// smallBuiltFunc emits a three-register straight-line function through
// the builder (so it arrives built, like a rewriter product).
func smallBuiltFunc(t *testing.T) *ir.Func {
	t.Helper()
	bu := ir.NewBuilder("rwunit")
	bu.Label("entry")
	a := bu.Set(1)
	b := bu.Set(2)
	bu.Op3(ir.OpAdd, a, b)
	bu.Halt()
	return bu.MustFinish()
}

// TestRewriteCacheUnit exercises the tier directly: identity palettes
// come back as the canonical pointer, foreign palettes relocate with
// remapped registers, repeats are exact hits, and the entry bound
// evicts.
func TestRewriteCacheUnit(t *testing.T) {
	f := smallBuiltFunc(t)
	canonical := smallBuiltFunc(t)
	rc := NewRewriteCache(RewriteConfig{Entries: 4})

	// pr=2: colors 0,1 private at base 0, color 2 shared at base 2 — the
	// identity palette, so StoreRewrite returns the canonical itself.
	body := rc.StoreRewrite(f, 2, 1, 0, 2, canonical, intra.RewriteStats{})
	if body != canonical {
		t.Fatal("identity palette did not return the canonical body")
	}
	if !canonical.Frozen() {
		t.Fatal("stored canonical is not frozen")
	}

	// An identity-palette lookup serves the canonical pointer itself (a
	// relocation hit whose relocation is free — no exact entry needed).
	hit, _, ok := rc.LookupRewrite(f, 2, 1, 0, 2)
	if !ok || hit != canonical {
		t.Fatalf("identity lookup: ok=%v, pointer match=%v", ok, hit == canonical)
	}

	// A foreign palette relocates: private base 10, shared base 20.
	reloc, _, ok := rc.LookupRewrite(f, 2, 1, 10, 20)
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
	again, _, ok := rc.LookupRewrite(f, 2, 1, 10, 20)
	if !ok || again != reloc {
		t.Errorf("repeat foreign lookup: ok=%v, pointer match=%v (want exact hit)", ok, again == reloc)
	}

	st := rc.Stats()
	if st.Hits != 1 || st.RelocHits != 2 || st.Entries != 2 || st.Bytes <= 0 {
		t.Errorf("stats = %+v, want 1 exact hit, 2 reloc hits, 2 entries, positive bytes", st)
	}

	// An unseen tuple misses.
	if _, _, ok := rc.LookupRewrite(f, 1, 2, 0, 1); ok {
		t.Error("unseen (pr, sr) tuple hit the cache")
	}

	// A bound of one entry evicts the older body.
	tight := NewRewriteCache(RewriteConfig{Entries: 1})
	tight.StoreRewrite(f, 2, 1, 0, 2, smallBuiltFunc(t), intra.RewriteStats{})
	tight.StoreRewrite(f, 1, 2, 0, 1, smallBuiltFunc(t), intra.RewriteStats{})
	st = tight.Stats()
	if st.Entries != 1 || st.Evictions == 0 {
		t.Errorf("tight cache stats = %+v, want 1 entry and evictions", st)
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
