package funccache

import (
	"npra/internal/intra"
	"npra/internal/ir"
)

// The rewrite half of a record: rewritten (physical-register) bodies of
// one function, by grant and palette. Cache implements
// core.RewriteSource with it.
//
// The rewritten body is a pure function of the tuple
// (key, PR, SR, privBase, sharedBase): the solution context chain is
// determined by the body and the (PR, SR) budget (Solve is memoized and
// bit-identical), and the palette is determined by the two base
// registers. The cache exploits one more degree of freedom: the
// rewriter's emission decisions (which edges need copies, how parallel
// copies sequentialize, where trampolines go) depend only on color
// *equality*, never on the physical register numbers themselves, so a
// body rewritten once onto the canonical identity palette (color c ->
// register c) can be relocated onto any concrete palette by a flat
// injective register renaming — a deep copy plus remap, far cheaper
// than re-running the rewriter.
//
// Two entry kinds share a record's rewrite LRU:
//
//   - canonical entries, keyed (PR, SR): the identity-palette body. A
//     hit costs one CloneRemapRegs (a "relocation hit").
//   - exact entries, keyed (PR, SR, privBase, sharedBase): the
//     relocated body for one concrete palette. A hit is free — the
//     cached *ir.Func is returned by pointer.
//
// Every use of an exact entry also touches its canonical entry, so a
// record never loses a canonical entry while it keeps exact entries
// derived from it.
//
// Every cached body is frozen (ir.Func.Freeze) before it becomes
// visible: entries are shared by pointer across requests and engine
// threads, and must never be mutated. The npravet frozenfunc analyzer
// enforces the caller side statically.
//
// Invalidation: none is ever needed. Keys are content hashes of the
// virtual body plus the full palette tuple, so a changed body or a
// different allocation simply misses; stale entries age out via LRU.

// rwKey keys one rewritten body inside a record. Canonical entries
// leave the bases zero and exact false.
type rwKey struct {
	pr, sr               int
	privBase, sharedBase ir.Reg
	exact                bool
}

type rwEntry struct {
	f     *ir.Func
	stats intra.RewriteStats
	bytes int64 // rewriteFuncBytes(f)
}

// LookupRewrite implements core.RewriteSource. It returns the rewritten
// body for the function keyed key under the given grant and palette
// when one can be served from cache: by pointer on an exact hit, by
// relocating the canonical body on a canonical hit (the relocated body
// is inserted as an exact entry so the next identical palette is free).
func (c *Cache) LookupRewrite(key string, pr, sr int, privBase, sharedBase ir.Reg) (*ir.Func, intra.RewriteStats, bool) {
	sh := c.shardOf(key)
	canonKey := rwKey{pr: pr, sr: sr}

	sh.mu.Lock()
	var canon rwEntry
	found := false
	if rec, ok := sh.lru.Get(key); ok {
		if e, ok := rec.rewrites.Get(rwKey{pr, sr, privBase, sharedBase, true}); ok {
			rec.rewrites.Get(canonKey)
			sh.mu.Unlock()
			c.rwHits.Add(1)
			return e.f, e.stats, true
		}
		canon, found = rec.rewrites.Get(canonKey)
	}
	sh.mu.Unlock()

	if !found {
		c.rwMisses.Add(1)
		return nil, intra.RewriteStats{}, false
	}
	c.rwRelocHits.Add(1)
	return c.store(key, pr, sr, privBase, sharedBase, canon.f, canon.stats), canon.stats, true
}

// StoreRewrite implements core.RewriteSource. canonical must be the
// identity-palette rewrite of the function keyed key at (pr, sr); it is
// frozen, cached, and relocated onto the requested palette. The
// returned body is the one the caller should use (it may be the
// canonical body itself when the palette is the identity).
func (c *Cache) StoreRewrite(key string, pr, sr int, privBase, sharedBase ir.Reg, canonical *ir.Func, stats intra.RewriteStats) *ir.Func {
	canonical.Freeze()
	return c.store(key, pr, sr, privBase, sharedBase, canonical, stats)
}

// store relocates the frozen canonical body onto the palette and caches
// both in key's record, creating the record when it is absent. The
// first insertion of an entry wins — a racing duplicate keeps the
// already-cached pointer stable for everyone who holds it — and the
// resident relocated body is returned.
func (c *Cache) store(key string, pr, sr int, privBase, sharedBase ir.Reg, canonical *ir.Func, stats intra.RewriteStats) *ir.Func {
	body := relocateRewrite(canonical, pr, privBase, sharedBase)
	if body != canonical {
		body.Freeze()
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := c.recordOf(sh, key)
	if body != canonical {
		body = c.addRewrite(rec, rwKey{pr, sr, privBase, sharedBase, true}, body, stats)
	}
	// After the exact entry, so the canonical is the more recent.
	c.addRewrite(rec, rwKey{pr: pr, sr: sr}, canonical, stats)
	return body
}

// addRewrite caches f under k in rec unless k is resident, and returns
// the resident body. The caller holds rec's shard lock.
func (c *Cache) addRewrite(rec *record, k rwKey, f *ir.Func, stats intra.RewriteStats) *ir.Func {
	e, added := rec.rewrites.Add(k, rwEntry{f: f, stats: stats, bytes: rewriteFuncBytes(f)})
	if added {
		rec.rwBytes += e.bytes
		c.rwEntries.Add(1)
		c.rwBytes.Add(e.bytes)
	}
	return e.f
}

// relocateRewrite maps the canonical identity-palette body onto the
// concrete palette: canonical register r is color r, so r < pr lands at
// privBase+r and the rest at sharedBase+(r-pr). Returns canonical
// itself when the palette already is the identity.
func relocateRewrite(canonical *ir.Func, pr int, privBase, sharedBase ir.Reg) *ir.Func {
	size := canonical.NumRegs // == palette size: identity maxes at size-1
	remap := make([]ir.Reg, size)
	maxReg := ir.Reg(-1)
	ident := true
	for r := 0; r < size; r++ {
		m := sharedBase + ir.Reg(r-pr)
		if r < pr {
			m = privBase + ir.Reg(r)
		}
		remap[r] = m
		if m != ir.Reg(r) {
			ident = false
		}
		if m > maxReg {
			maxReg = m
		}
	}
	if ident {
		return canonical
	}
	return canonical.CloneRemapRegs(remap, int(maxReg)+1)
}

// rewriteFuncBytes approximates the heap footprint of a cached body.
// Constants mirror the struct shapes loosely (a Func header, a Block
// header + CFG slices per block, an Instr per instruction); the figure
// feeds an observability gauge, not an eviction decision.
func rewriteFuncBytes(f *ir.Func) int64 {
	const funcOverhead, blockOverhead, instrSize = 160, 144, 48
	n := int64(funcOverhead)
	for _, b := range f.Blocks {
		n += blockOverhead + instrSize*int64(len(b.Instrs))
	}
	return n
}

// RewriteConfig configured the separate rewrite tier that records now
// hold.
//
// Deprecated: a Cache is its own core.RewriteSource; use New.
type RewriteConfig struct {
	// KeyFn is ignored: bodies are keyed by core.FuncKey.
	KeyFn func(*ir.Func) string
}

// NewRewriteCache returns New(Config{}).
//
// Deprecated: a Cache is its own core.RewriteSource; use New and hand
// the one Cache to core.Config as both FuncCache and RewriteCache.
func NewRewriteCache(RewriteConfig) *Cache { return New(Config{}) }
