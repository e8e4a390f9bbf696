// Package funccache lifts caching from request granularity to function
// granularity: a process-wide, sharded, bounded LRU of per-function
// engine artifacts — the compiled ir.Func (BodyCache), its analysis
// (liveness/NSR/interference graph) and warm intra.Allocators whose
// (pr,sr)→Solution memo tables survive across requests (Cache).
//
// The request-level layers above (singleflight, the result LRU) only
// help when two requests share a canonical key; this layer reuses work
// whenever two *different* requests embed the same function body. A
// request for "md5 x2 + url x2" replays everything a prior "md5 x4"
// request computed: the analysis is shared read-only, and every Solve
// the earlier run memoized is a map lookup for the later one.
//
// Keying: entries are keyed by core.FuncKey, the body's content key
// ir.Func.Key — a sha256 over a structural encoding of exactly what
// ir.Func.Format prints, computed without printing. Bodies handed out
// by a BodyCache are frozen, and a frozen body keeps its key after the
// first call, so a warm lookup never re-hashes; the cache holds no
// pointer-keyed memo of its own (which would pin bodies the tiers have
// already evicted). The hardware profile (NReg, thread count,
// mode) is deliberately NOT part of the key: every per-function
// artifact the cache holds is a pure function of the body alone —
// analysis doesn't see NReg, and the Solve memo is keyed inside the
// allocator by the (pr,sr) budget — so one entry serves every register
// file a body is allocated against.
//
// Correctness contract (mirrors core.AllocatorSource):
//   - A checked-out allocator is exclusively the caller's until checkin.
//   - checkin(ok=false) discards the allocator: failed, degraded or
//     panicked runs never warm the cache. An entry is only ever
//     installed by a checkin(ok=true), so a body that never completed
//     cleanly has no entry at all.
//   - Results are bit-identical warm or cold: Solve is a pure function
//     of the analysis and the budget, memoized Solutions/Contexts are
//     immutable once inserted, and merging memo tables (Absorb) only
//     adds entries another run would have recomputed identically.
//
// Eviction is strict per-shard LRU on checkout/checkin order, bounded
// by Config.Entries (the shard capacities sum to it exactly); with
// Shards=1 and serial use the order is fully deterministic and
// observable through Stats.
//
// All three tiers — BodyCache, Cache's shards and RewriteCache — sit on
// one lru.Cache each, serialised by the tier's (or shard's) own mutex.
// The LRU is the only code that evicts; per-entry accounting (Cache's
// idle-pool and byte gauges, RewriteCache's byte gauge) is settled in
// its onEvict callback.
package funccache

import (
	"sync"
	"sync/atomic"

	"npra/internal/core"
	"npra/internal/ig"
	"npra/internal/intra"
	"npra/internal/ir"
	"npra/internal/lru"
)

// Config sizes a Cache. Zero values take the noted defaults.
type Config struct {
	// Entries bounds the number of distinct function bodies cached
	// (default 256). The bound is split across shards, the shard
	// capacities summing to exactly Entries.
	Entries int

	// Shards is the lock-striping factor (default 8). Tests that assert
	// global LRU eviction order use 1.
	Shards int

	// MaxIdle bounds the idle allocators pooled per entry (default 4).
	// Concurrent checkouts of one body beyond the pool get overflow
	// allocators built over the shared analysis; at checkin, overflow
	// beyond MaxIdle is folded into the pool via Absorb so its memo
	// entries are kept even though the allocator itself is dropped.
	MaxIdle int
}

func (c Config) withDefaults() Config {
	if c.Entries <= 0 {
		c.Entries = 256
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > c.Entries {
		c.Shards = c.Entries
	}
	if c.MaxIdle <= 0 {
		c.MaxIdle = 4
	}
	return c
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 // checkouts served from a warm entry
	Misses    int64 // checkouts that built a fresh analysis
	Evictions int64 // entries dropped to stay within the Entries bound
	Discards  int64 // allocators dropped by checkin(ok=false)
	Entries   int64 // live entries right now
	Idle      int64 // idle pooled allocators right now
	Bytes     int64 // approximate heap bytes held by idle allocators
}

// entry is one cached function body: the shared read-only analysis and
// a LIFO pool of idle warm allocators over it.
type entry struct {
	analysis *ig.Analysis
	idle     []*intra.Allocator
}

type shard struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *entry]
}

// Cache is the function-level warm cache. It implements
// core.AllocatorSource. The zero value is not usable; construct with
// New.
type Cache struct {
	cfg    Config
	shards []*shard

	hits     atomic.Int64
	misses   atomic.Int64
	discards atomic.Int64
	idle     atomic.Int64
	bytes    atomic.Int64
}

// New returns an empty cache sized by cfg.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{cfg: cfg}
	for s := 0; s < cfg.Shards; s++ {
		// The first Entries%Shards shards take one entry of the remainder.
		capacity := cfg.Entries / cfg.Shards
		if s < cfg.Entries%cfg.Shards {
			capacity++
		}
		c.shards = append(c.shards, &shard{lru: lru.New(capacity, c.evicted)})
	}
	return c
}

// evicted releases an evicted entry's idle pool from the gauges. It runs
// under the evicting shard's lock.
func (c *Cache) evicted(_ string, e *entry) {
	for _, al := range e.idle {
		c.idle.Add(-1)
		c.bytes.Add(-al.Footprint())
	}
	e.idle = nil
}

// Stats returns a snapshot of the counters. Evictions and Entries are
// summed across shards under their locks; the atomics are read
// individually, so a snapshot taken during concurrent use is
// approximate but each counter is exact.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Discards: c.discards.Load(),
		Idle:     c.idle.Load(),
		Bytes:    c.bytes.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Evictions += sh.lru.Evictions()
		st.Entries += int64(sh.lru.Len())
		sh.mu.Unlock()
	}
	return st
}

// FuncKey returns core.FuncKey(f).
//
// Deprecated: frozen bodies cache their own key (ir.Func.Key); call
// core.FuncKey directly.
func (c *Cache) FuncKey(f *ir.Func) string { return core.FuncKey(f) }

func (c *Cache) shardOf(key string) *shard {
	// The key is a sha256 hex digest: its first bytes are already
	// uniformly distributed, so fold a few into the shard index.
	var h uint32
	for i := 0; i < 8 && i < len(key); i++ {
		h = h*31 + uint32(key[i])
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Checkout implements core.AllocatorSource: it returns a warm allocator
// for f's body when one is cached (or an overflow allocator over the
// cached analysis when the pool is empty), building fresh on a miss.
// The returned checkin must be called exactly once; ok=true recycles
// the allocator's memo into the cache, ok=false discards it.
func (c *Cache) Checkout(f *ir.Func) (*intra.Allocator, func(ok bool), error) {
	key := core.FuncKey(f)
	sh := c.shardOf(key)

	sh.mu.Lock()
	e, warm := sh.lru.Get(key)
	var al *intra.Allocator
	var analysis *ig.Analysis
	if warm {
		analysis = e.analysis
		if n := len(e.idle); n > 0 {
			al = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
			c.idle.Add(-1)
			c.bytes.Add(-al.Footprint())
		}
	}
	sh.mu.Unlock()

	if warm {
		c.hits.Add(1)
		if al == nil {
			// Pool drained by concurrent checkouts: an overflow allocator
			// over the shared analysis still skips the build phase, which
			// is the dominant cold cost. Its own Solve work is merged
			// back at checkin.
			var err error
			al, err = intra.NewFromAnalysis(analysis)
			if err != nil {
				return nil, nil, err
			}
		}
		return al, c.checkinFunc(key, al), nil
	}

	c.misses.Add(1)
	al, err := intra.New(f)
	if err != nil {
		return nil, nil, err
	}
	return al, c.checkinFunc(key, al), nil
}

// checkinFunc builds the single-use return path for one checked-out
// allocator. It never blocks on anything but the shard lock and never
// fails: a checkin that cannot recycle (mismatched analysis after an
// eviction race, Absorb refusal) degrades to dropping the allocator.
func (c *Cache) checkinFunc(key string, al *intra.Allocator) func(bool) {
	var once sync.Once
	return func(ok bool) {
		once.Do(func() {
			if !ok {
				c.discards.Add(1)
				return
			}
			sh := c.shardOf(key)
			sh.mu.Lock()
			defer sh.mu.Unlock()
			e, cached := sh.lru.Get(key)
			if !cached {
				// First clean completion for this body: install the entry.
				// Installation happens here, not at checkout, so bodies
				// whose runs never complete cleanly are never cached.
				e, _ = sh.lru.Add(key, &entry{analysis: al.A})
			} else if e.analysis != al.A {
				// The entry was evicted and rebuilt while this allocator
				// was out. Its memo Contexts point into a different (but
				// equivalent) analysis; pooling it would make later
				// Absorb calls refuse. Drop it.
				c.discards.Add(1)
				return
			}
			if len(e.idle) < c.cfg.MaxIdle {
				// Zero the counters so the next run that checks this
				// allocator out reports only its own work (the engine
				// aggregates allocator counters verbatim).
				al.ResetStats()
				e.idle = append(e.idle, al)
				c.idle.Add(1)
				c.bytes.Add(al.Footprint())
				return
			}
			// Pool full: keep the memo, not the allocator. Absorb only
			// adds entries the pooled allocator was missing, so its
			// footprint can only grow by what this run learned.
			dst := e.idle[len(e.idle)-1]
			pre := dst.Footprint()
			if err := dst.Absorb(al); err == nil {
				c.bytes.Add(dst.Footprint() - pre)
			}
			c.discards.Add(1)
		})
	}
}
