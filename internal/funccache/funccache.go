// Package funccache lifts caching from request granularity to function
// granularity. It has two tiers:
//
//   - BodyCache: the compiled ir.Func, keyed by the thread's source
//     spec (masm text or progen spec, plus the name), so a body seen
//     before is neither re-assembled nor re-generated.
//   - Cache: one record per function body, keyed by the body's content
//     key. A record holds everything the engine derives from that body
//     alone: its analysis (liveness/NSR/interference graph), warm
//     intra.Allocators whose (pr,sr)→Solution memo tables survive
//     across requests, and its rewritten code per grant and palette.
//
// The request-level layers above (singleflight, the result LRU) only
// help when two requests share a canonical key; this layer reuses work
// whenever two *different* requests embed the same function body. A
// request for "md5 x2 + url x2" replays everything a prior "md5 x4"
// request computed: the analysis is shared read-only, every Solve the
// earlier run memoized is a map lookup, and a thread granted the same
// (PR, SR) again gets its code by pointer or by a register relocation.
//
// Keying: records are keyed by core.FuncKey, the body's content key
// ir.Func.Key — a sha256 over a structural encoding of exactly what
// ir.Func.Format prints, computed without printing. The engine hashes
// each body once per allocation and passes the key in; bodies handed
// out by a BodyCache are frozen, and a frozen body keeps its key, so a
// warm request never re-hashes. The hardware profile (NReg, thread
// count, mode) is deliberately NOT part of the key: the analysis
// doesn't see NReg, the Solve memo is keyed inside the allocator by the
// (pr,sr) budget, and rewrites are keyed inside the record by grant and
// palette, so one record serves every register file a body is
// allocated against.
//
// Correctness contract (mirrors core.AllocatorSource):
//   - A checked-out allocator is exclusively the caller's until checkin.
//   - checkin(ok=false) discards the allocator: failed, degraded or
//     panicked runs never warm the analysis or the pool. A record's
//     analysis is only ever installed by a checkin(ok=true). StoreRewrite
//     may create a record before that checkin (the engine rewrites
//     before it checks in); such a record holds rewrites and no
//     analysis, and a Checkout of it is a miss.
//   - Results are bit-identical warm or cold: Solve is a pure function
//     of the analysis and the budget, memoized Solutions/Contexts are
//     immutable once inserted, merging memo tables (Absorb) only adds
//     entries another run would have recomputed identically, and a
//     rewritten body is a pure function of (key, PR, SR, palette).
//
// Eviction is strict per-shard LRU over records, bounded by
// Config.Entries (the shard capacities sum to it exactly); evicting a
// record drops the whole body at once. Inside a record the rewrites sit
// on their own LRU of RewritesPerBody entries. With Shards=1 and serial
// use the order is fully deterministic and observable through Stats.
// Each tier's LRU is an lru.Cache serialised by the tier's (or shard's)
// mutex; per-entry accounting (idle-pool and byte gauges) is settled in
// the onEvict callbacks.
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

// RewritesPerBody bounds the rewritten bodies one record keeps,
// canonical and exact-palette entries alike. A body granted one (PR, SR)
// and placed at many palettes keeps its canonical entry and the 31 most
// recent exact ones; older palettes are served again by relocation.
const RewritesPerBody = 32

// Config sizes a Cache. Zero values take the noted defaults.
type Config struct {
	// Entries bounds the number of distinct function bodies cached
	// (default 256). The bound is split across shards, the shard
	// capacities summing to exactly Entries. Each body holds at most
	// RewritesPerBody rewritten bodies.
	Entries int

	// Shards is the lock-striping factor (default 8). Tests that assert
	// global LRU eviction order use 1.
	Shards int

	// MaxIdle bounds the idle allocators pooled per record (default 4).
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
	Hits      int64 // checkouts served from a warm record
	Misses    int64 // checkouts that built a fresh analysis
	Evictions int64 // records dropped to stay within the Entries bound
	Discards  int64 // allocators dropped by checkin(ok=false)
	Entries   int64 // live records right now
	Idle      int64 // idle pooled allocators right now
	Bytes     int64 // approximate heap bytes held by idle allocators

	RewriteHits      int64 // exact-palette rewrite hits, served by pointer
	RewriteRelocHits int64 // canonical rewrite hits, served by relocation
	RewriteMisses    int64 // rewrite lookups that fell through to the rewriter
	RewriteEvictions int64 // rewritten bodies dropped by the per-record bound or with their record
	RewriteEntries   int64 // rewritten bodies held right now
	RewriteBytes     int64 // approximate heap bytes held by rewritten bodies
}

// record is everything the cache holds for one function body.
type record struct {
	analysis *ig.Analysis // nil until the body's first clean checkin
	idle     []*intra.Allocator
	rewrites *lru.Cache[rwKey, rwEntry]
	rwBytes  int64 // sum of the rewrites' bytes
}

type shard struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *record]
}

// Cache is the function-level warm cache. It implements
// core.AllocatorSource and core.RewriteSource. The zero value is not
// usable; construct with New.
type Cache struct {
	cfg    Config
	shards []*shard

	hits     atomic.Int64
	misses   atomic.Int64
	discards atomic.Int64
	idle     atomic.Int64
	bytes    atomic.Int64

	rwHits      atomic.Int64
	rwRelocHits atomic.Int64
	rwMisses    atomic.Int64
	rwEvictions atomic.Int64
	rwEntries   atomic.Int64
	rwBytes     atomic.Int64
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

// evicted releases an evicted record's idle pool and rewrites from the
// gauges. It runs under the evicting shard's lock.
func (c *Cache) evicted(_ string, rec *record) {
	for _, al := range rec.idle {
		c.idle.Add(-1)
		c.bytes.Add(-al.Footprint())
	}
	rec.idle = nil
	n := int64(rec.rewrites.Len())
	c.rwEvictions.Add(n)
	c.rwEntries.Add(-n)
	c.rwBytes.Add(-rec.rwBytes)
}

// recordOf returns key's record in sh, creating it when absent. The
// caller holds sh.mu.
func (c *Cache) recordOf(sh *shard, key string) *record {
	if rec, ok := sh.lru.Get(key); ok {
		return rec
	}
	rec := &record{}
	rec.rewrites = lru.New(RewritesPerBody, func(_ rwKey, e rwEntry) {
		rec.rwBytes -= e.bytes
		c.rwEvictions.Add(1)
		c.rwEntries.Add(-1)
		c.rwBytes.Add(-e.bytes)
	})
	sh.lru.Add(key, rec)
	return rec
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

		RewriteHits:      c.rwHits.Load(),
		RewriteRelocHits: c.rwRelocHits.Load(),
		RewriteMisses:    c.rwMisses.Load(),
		RewriteEvictions: c.rwEvictions.Load(),
		RewriteEntries:   c.rwEntries.Load(),
		RewriteBytes:     c.rwBytes.Load(),
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
// for the body keyed key when one is cached (or an overflow allocator
// over the cached analysis when the pool is empty), building fresh from
// f on a miss. The returned checkin must be called exactly once;
// ok=true recycles the allocator's memo into the cache, ok=false
// discards it.
func (c *Cache) Checkout(f *ir.Func, key string) (*intra.Allocator, func(ok bool), error) {
	sh := c.shardOf(key)

	sh.mu.Lock()
	var al *intra.Allocator
	var analysis *ig.Analysis
	if rec, ok := sh.lru.Get(key); ok && rec.analysis != nil {
		analysis = rec.analysis
		if n := len(rec.idle); n > 0 {
			al = rec.idle[n-1]
			rec.idle[n-1] = nil
			rec.idle = rec.idle[:n-1]
			c.idle.Add(-1)
			c.bytes.Add(-al.Footprint())
		}
	}
	sh.mu.Unlock()

	if analysis != nil {
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
			rec := c.recordOf(sh, key)
			if rec.analysis == nil {
				// First clean completion for this body: install the
				// analysis. Installation happens here, not at checkout,
				// so bodies whose runs never complete cleanly never warm
				// the cache.
				rec.analysis = al.A
			} else if rec.analysis != al.A {
				// The record was evicted and rebuilt while this allocator
				// was out. Its memo Contexts point into a different (but
				// equivalent) analysis; pooling it would make later
				// Absorb calls refuse. Drop it.
				c.discards.Add(1)
				return
			}
			if len(rec.idle) < c.cfg.MaxIdle {
				// Zero the counters so the next run that checks this
				// allocator out reports only its own work (the engine
				// aggregates allocator counters verbatim).
				al.ResetStats()
				rec.idle = append(rec.idle, al)
				c.idle.Add(1)
				c.bytes.Add(al.Footprint())
				return
			}
			// Pool full: keep the memo, not the allocator. Absorb only
			// adds entries the pooled allocator was missing, so its
			// footprint can only grow by what this run learned.
			dst := rec.idle[len(rec.idle)-1]
			pre := dst.Footprint()
			if err := dst.Absorb(al); err == nil {
				c.bytes.Add(dst.Footprint() - pre)
			}
			c.discards.Add(1)
		})
	}
}
