package serve

import (
	"npra/internal/core"
	"npra/internal/lru"
)

// The deduplication layer. A flight is one engine invocation's worth of
// work, keyed by the request's canonical hash (core.WireRequest.
// CanonicalKey — mode, budget and materialized thread bodies; worker
// count and timeout excluded, which is sound because the engine is
// bit-identical across worker counts). Requests join a flight in one of
// three ways:
//
//   - leader: first arrival; owns enqueueing the engine job.
//   - inflight hit: an identical request is already running; wait for
//     its result (classic singleflight).
//   - cached hit: an identical request completed recently and its
//     flight is still in the bounded result cache; answer immediately.
//
// Completed flights move into a capacity-bounded LRU so the
// deduplication window extends past the in-flight interval — this is
// the serving-layer analog of the engine's (pr,sr)→Solution memo cache
// from PR 1. Only clean, non-degraded successes are cached: errors and
// degraded fallbacks are transient conditions that must be retried.
type flight struct {
	key  string
	done chan struct{} // closed once alloc/err are set

	// Written exactly once (by the batch runner) before done is closed;
	// read only after <-done.
	alloc   *core.Allocation
	err     error
	batched int // size of the batch this flight's job ran in
}

type joinKind int

const (
	joinLeader joinKind = iota
	joinInflight
	joinCached
)

type flightGroup struct {
	// The caller holds Server.flightMu, which also makes join+enqueue
	// atomic with respect to abandon.
	inflight map[string]*flight
	cache    *lru.Cache[string, *flight] // completed flights; capacity 0 disables
}

func newFlightGroup(capacity int) *flightGroup {
	return &flightGroup{
		inflight: make(map[string]*flight),
		cache:    lru.New[string, *flight](capacity, nil),
	}
}

// join returns the flight for key, creating one (leader) if no running
// or cached flight exists. Caller holds the server's flight lock.
func (g *flightGroup) join(key string) (*flight, joinKind) {
	if fl, ok := g.inflight[key]; ok {
		return fl, joinInflight
	}
	if fl, ok := g.cache.Get(key); ok {
		return fl, joinCached
	}
	fl := &flight{key: key, done: make(chan struct{})}
	g.inflight[key] = fl
	return fl, joinLeader
}

// complete resolves a flight and promotes cacheable results into the
// LRU. Caller holds the server's flight lock; done is closed by the
// caller *after* releasing it.
func (g *flightGroup) complete(fl *flight, alloc *core.Allocation, err error) {
	fl.alloc, fl.err = alloc, err
	delete(g.inflight, fl.key)
	if err != nil || alloc == nil || alloc.Degraded {
		return
	}
	g.cache.Add(fl.key, fl)
}

// abandon removes a leader's flight that never made it into the queue
// (admission refused). Caller holds the server's flight lock and then
// closes fl.done after setting fl.err, so racing joiners see the
// overload error instead of hanging.
func (g *flightGroup) abandon(fl *flight) {
	delete(g.inflight, fl.key)
}
