package funccache

// BodyCache is the parse-level half of the function cache: a bounded
// LRU from a thread's body spec (masm source or progen spec, plus the
// effective name — see core.(*WireThread) bodySpec) to the compiled
// ir.Func, so parsing/generation happens once per canonical body
// rather than once per request. It implements core.CompiledBodies.
//
// Cached functions are shared across requests and goroutines, so each
// is frozen (ir.Func.Freeze) before it is inserted: the read-only
// contract the sharing relies on is enforced, not just promised. A
// frozen body computes its content key (ir.Func.Key) on first use and
// keeps it, so every later request that keys a cached body — request
// canonicalization, the engine's grouping loop, whose key the function
// cache takes — reads a stored string instead of re-hashing the body. Build errors are returned to
// the caller and never cached.

import (
	"sync"

	"npra/internal/ir"
	"npra/internal/lru"
)

// BodyCache is safe for concurrent use. Construct with NewBodyCache.
type BodyCache struct {
	mu           sync.Mutex
	lru          *lru.Cache[string, *ir.Func]
	hits, misses int64 // guarded by mu
}

// NewBodyCache returns an empty cache bounded to entries bodies
// (default 1024 when entries <= 0).
func NewBodyCache(entries int) *BodyCache {
	if entries <= 0 {
		entries = 1024
	}
	return &BodyCache{lru: lru.New[string, *ir.Func](entries, nil)}
}

// GetOrCompile implements core.CompiledBodies: it returns the function
// cached under key, calling build on a miss. Compilation runs outside
// the lock; when two goroutines miss the same key concurrently, the
// first insertion wins and both receive the same pointer thereafter
// (the losing compile produced a body-for-body identical function, so
// either answer is correct — sharing one maximizes downstream
// pointer-identity reuse).
func (b *BodyCache) GetOrCompile(key string, build func() (*ir.Func, error)) (*ir.Func, error) {
	b.mu.Lock()
	f, ok := b.lru.Get(key)
	if ok {
		b.hits++
	} else {
		b.misses++
	}
	b.mu.Unlock()
	if ok {
		return f, nil
	}

	f, err := build()
	if err != nil {
		return nil, err
	}
	f.Freeze()

	b.mu.Lock()
	defer b.mu.Unlock()
	f, _ = b.lru.Add(key, f)
	return f, nil
}

// Stats returns a snapshot of the counters.
func (b *BodyCache) Stats() lru.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return lru.Stats{Hits: b.hits, Misses: b.misses, Evictions: b.lru.Evictions(), Entries: int64(b.lru.Len())}
}
