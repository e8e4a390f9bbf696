package core

// The function-cache seam. The engine's per-function artifacts —
// analysis (liveness/NSR/IG), bound estimation, the context-derivation
// chain and the (pr,sr)→Solution memo — depend only on the function
// body, never on which thread mix a request embeds it in. An
// AllocatorSource lets a serving layer keep those artifacts alive
// across engine invocations (internal/funccache is the process-wide
// implementation); the engine itself stays cache-agnostic: with a nil
// Config.FuncCache it builds fresh allocators exactly as before, and
// the allocation result is bit-identical either way (Solve is a pure
// function of the analysis and the budget).

import (
	"npra/internal/intra"
	"npra/internal/ir"
)

// AllocatorSource supplies intra-thread allocators for function bodies.
// Checkout returns an allocator that is exclusively the caller's until
// checkin runs; a warm source returns allocators whose memo tables
// survive from earlier checkouts of the same body. key is FuncKey(f),
// which the engine has already computed: a source must not hash the
// body again.
//
// checkin(ok) must be called exactly once when the caller is done, with
// ok reporting whether the allocation completed cleanly: an allocator
// used by a failed, degraded or panicked run is discarded rather than
// recycled, so error results never warm the cache. After checkin the
// caller must not touch the allocator or any scratch state reachable
// from it; memoized Solutions and their Contexts remain valid (they are
// immutable once memoized).
type AllocatorSource interface {
	Checkout(f *ir.Func, key string) (al *intra.Allocator, checkin func(ok bool), err error)
}

// RewriteSource supplies rewritten (physical-register) bodies for
// (function, grant, palette) tuples, the function given by its key
// FuncKey(f). The rewritten body is a pure function of
// (key, pr, sr, privBase, sharedBase) for the
// default-mode allocators the engine builds — Solve is bit-identical
// for a given analysis and budget, and the rewriter's decisions depend
// only on color equality — so a source may serve one emission to any
// number of callers.
//
// Contract: bodies returned by LookupRewrite, and the body returned by
// StoreRewrite, are shared by pointer and frozen (ir.Func.Frozen); the
// caller must treat them as immutable. StoreRewrite takes the canonical
// identity-palette emission (phys[c] = c) and returns the body
// relocated onto the requested palette.
type RewriteSource interface {
	LookupRewrite(key string, pr, sr int, privBase, sharedBase ir.Reg) (body *ir.Func, stats intra.RewriteStats, ok bool)
	StoreRewrite(key string, pr, sr int, privBase, sharedBase ir.Reg, canonical *ir.Func, stats intra.RewriteStats) *ir.Func
}

// acquire returns the allocator for f, whose key is key: from the
// configured source when one is set, freshly built otherwise (with a
// no-op checkin).
func acquire(cfg Config, f *ir.Func, key string) (*intra.Allocator, func(bool), error) {
	if cfg.FuncCache != nil {
		return cfg.FuncCache.Checkout(f, key)
	}
	al, err := intra.New(f)
	if err != nil {
		return nil, nil, err
	}
	return al, func(bool) {}, nil
}
