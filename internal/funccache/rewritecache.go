package funccache

import (
	"strconv"
	"sync"
	"sync/atomic"

	"npra/internal/core"
	"npra/internal/intra"
	"npra/internal/ir"
	"npra/internal/lru"
)

// RewriteCache is the third tier of the function-level cache hierarchy:
// a bounded LRU of rewritten (physical-register) function bodies. It
// implements core.RewriteSource.
//
// The rewritten body is a pure function of the tuple
// (FuncKey, PR, SR, privBase, sharedBase): the solution context chain is
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
// Two entry kinds share one LRU:
//
//   - canonical entries, keyed (FuncKey, PR, SR): the identity-palette
//     body. A hit costs one CloneRemapRegs (a "relocation hit").
//   - exact entries, keyed (FuncKey, PR, SR, privBase, sharedBase): the
//     relocated body for one concrete palette. A hit is free — the
//     cached *ir.Func is returned by pointer.
//
// Every cached body is frozen (ir.Func.Freeze) before it becomes
// visible: entries are shared by pointer across requests and engine
// threads, and must never be mutated. The npravet frozenfunc analyzer
// enforces the caller side statically.
//
// Invalidation: none is ever needed. Keys are content hashes of the
// virtual body plus the full palette tuple, so a changed body or a
// different allocation simply misses; stale entries age out via LRU.
type RewriteCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, rwEntry]

	hits      atomic.Int64
	relocHits atomic.Int64
	misses    atomic.Int64
	bytes     atomic.Int64
}

// RewriteConfig sizes a RewriteCache.
type RewriteConfig struct {
	// Entries bounds the number of cached bodies, counting canonical and
	// exact entries alike (default 1024).
	Entries int

	// KeyFn is ignored: bodies are keyed by core.FuncKey.
	//
	// Deprecated: frozen bodies cache their own key (ir.Func.Key), so
	// there is no memo to share. Leave it unset.
	KeyFn func(*ir.Func) string
}

// RewriteCacheStats is a point-in-time snapshot of the counters.
type RewriteCacheStats struct {
	Hits      int64 // exact-palette hits, served by pointer
	RelocHits int64 // canonical hits, served by relocation (clone+remap)
	Misses    int64 // lookups that fell through to the rewriter
	Evictions int64 // entries dropped to stay within the bound
	Entries   int64 // live entries right now
	Bytes     int64 // approximate heap bytes held by cached bodies
}

type rwEntry struct {
	f     *ir.Func
	stats intra.RewriteStats
}

// NewRewriteCache returns an empty cache sized by cfg.
func NewRewriteCache(cfg RewriteConfig) *RewriteCache {
	if cfg.Entries <= 0 {
		cfg.Entries = 1024
	}
	rc := &RewriteCache{}
	rc.lru = lru.New(cfg.Entries, func(_ string, e rwEntry) { rc.bytes.Add(-rewriteFuncBytes(e.f)) })
	return rc
}

// Stats returns a snapshot of the counters.
func (rc *RewriteCache) Stats() RewriteCacheStats {
	st := RewriteCacheStats{
		Hits:      rc.hits.Load(),
		RelocHits: rc.relocHits.Load(),
		Misses:    rc.misses.Load(),
		Bytes:     rc.bytes.Load(),
	}
	rc.mu.Lock()
	st.Evictions, st.Entries = rc.lru.Evictions(), int64(rc.lru.Len())
	rc.mu.Unlock()
	return st
}

func exactRewriteKey(fkey string, pr, sr int, privBase, sharedBase ir.Reg) string {
	return "x|" + fkey + "|" + strconv.Itoa(pr) + "|" + strconv.Itoa(sr) +
		"|" + strconv.Itoa(int(privBase)) + "|" + strconv.Itoa(int(sharedBase))
}

func canonRewriteKey(fkey string, pr, sr int) string {
	return "c|" + fkey + "|" + strconv.Itoa(pr) + "|" + strconv.Itoa(sr)
}

// LookupRewrite implements core.RewriteSource. It returns the rewritten
// body for f under the given grant and palette when one can be served
// from cache: by pointer on an exact hit, by relocating the canonical
// body on a canonical hit (the relocated body is inserted as an exact
// entry so the next identical palette is free).
func (rc *RewriteCache) LookupRewrite(f *ir.Func, pr, sr int, privBase, sharedBase ir.Reg) (*ir.Func, intra.RewriteStats, bool) {
	fkey := core.FuncKey(f)
	ek := exactRewriteKey(fkey, pr, sr, privBase, sharedBase)

	rc.mu.Lock()
	if e, ok := rc.lru.Get(ek); ok {
		rc.mu.Unlock()
		rc.hits.Add(1)
		return e.f, e.stats, true
	}
	e, ok := rc.lru.Get(canonRewriteKey(fkey, pr, sr))
	rc.mu.Unlock()

	if !ok {
		rc.misses.Add(1)
		return nil, intra.RewriteStats{}, false
	}
	body := relocateRewrite(e.f, pr, privBase, sharedBase)
	if body != e.f {
		body.Freeze()
		rc.insert(ek, body, e.stats)
	}
	rc.relocHits.Add(1)
	return body, e.stats, true
}

// StoreRewrite implements core.RewriteSource. canonical must be the
// identity-palette rewrite of f at (pr, sr); it is frozen, cached, and
// relocated onto the requested palette. The returned body is the one
// the caller should use (it may be the canonical body itself when the
// palette is the identity).
func (rc *RewriteCache) StoreRewrite(f *ir.Func, pr, sr int, privBase, sharedBase ir.Reg, canonical *ir.Func, stats intra.RewriteStats) *ir.Func {
	canonical.Freeze()
	fkey := core.FuncKey(f)
	rc.insert(canonRewriteKey(fkey, pr, sr), canonical, stats)
	body := relocateRewrite(canonical, pr, privBase, sharedBase)
	if body != canonical {
		body.Freeze()
		rc.insert(exactRewriteKey(fkey, pr, sr, privBase, sharedBase), body, stats)
	}
	return body
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

// insert adds (or refreshes) one entry under the LRU bound. The first
// insertion of a key wins — a racing duplicate keeps the already-cached
// pointer stable for everyone who holds it.
func (rc *RewriteCache) insert(key string, f *ir.Func, stats intra.RewriteStats) {
	sz := rewriteFuncBytes(f)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, added := rc.lru.Add(key, rwEntry{f: f, stats: stats}); added {
		rc.bytes.Add(sz)
	}
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
