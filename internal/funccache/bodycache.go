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
// canonicalization, the function and rewrite tiers — reads a stored
// string instead of re-hashing the body. Build errors are returned to
// the caller and never cached.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"npra/internal/ir"
)

// BodyStats is a snapshot of a BodyCache's counters.
type BodyStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int64
}

type bodyEntry struct {
	key string
	f   *ir.Func
}

// BodyCache is safe for concurrent use. Construct with NewBodyCache.
type BodyCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *bodyEntry
	cap     int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewBodyCache returns an empty cache bounded to entries bodies
// (default 1024 when entries <= 0).
func NewBodyCache(entries int) *BodyCache {
	if entries <= 0 {
		entries = 1024
	}
	return &BodyCache{
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		cap:     entries,
	}
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
	if el, ok := b.entries[key]; ok {
		b.lru.MoveToFront(el)
		f := el.Value.(*bodyEntry).f
		b.mu.Unlock()
		b.hits.Add(1)
		return f, nil
	}
	b.mu.Unlock()

	b.misses.Add(1)
	f, err := build()
	if err != nil {
		return nil, err
	}
	f.Freeze()

	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.entries[key]; ok {
		b.lru.MoveToFront(el)
		return el.Value.(*bodyEntry).f, nil
	}
	b.entries[key] = b.lru.PushFront(&bodyEntry{key: key, f: f})
	for b.lru.Len() > b.cap {
		back := b.lru.Back()
		b.lru.Remove(back)
		delete(b.entries, back.Value.(*bodyEntry).key)
		b.evictions.Add(1)
	}
	return f, nil
}

// Stats returns a snapshot of the counters.
func (b *BodyCache) Stats() BodyStats {
	b.mu.Lock()
	n := int64(b.lru.Len())
	b.mu.Unlock()
	return BodyStats{
		Hits:      b.hits.Load(),
		Misses:    b.misses.Load(),
		Evictions: b.evictions.Load(),
		Entries:   n,
	}
}
