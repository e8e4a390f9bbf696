package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"npra/internal/core"
	"npra/internal/ir"
	"npra/internal/lru"
)

// rawCache is the zero-copy front door of the request path: a bounded
// LRU keyed by the sha256 of the *raw request bytes*, holding everything
// the decode pipeline would derive from them — the normalized
// WireRequest, its compiled thread bodies and its canonical engine key.
// A byte-identical repeat (the common shape under load generators,
// retries and fan-in proxies, which all re-serialize the same struct)
// skips JSON decoding, body compilation and canonical hashing entirely:
// one pass over the raw bytes replaces them all.
//
// Entries are only stored after the full pipeline succeeded, so error
// responses are never cached, and the stored request is the normalized
// form (NReg defaulted) — cached state is read-only from then on; the
// handler must never write through it.
type rawCache struct {
	mu           sync.Mutex
	lru          *lru.Cache[string, *rawEntry]
	hits, misses int64 // guarded by mu
}

type rawEntry struct {
	key   string            // canonical engine key (flight/dedup key)
	req   *core.WireRequest // normalized; shared read-only
	funcs []*ir.Func
}

func newRawCache(entries int) *rawCache {
	return &rawCache{lru: lru.New[string, *rawEntry](entries, nil)}
}

// rawRequestKey is the one-pass content key over the raw request bytes.
func rawRequestKey(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func (c *rawCache) stats() lru.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return lru.Stats{Hits: c.hits, Misses: c.misses, Evictions: c.lru.Evictions(), Entries: int64(c.lru.Len())}
}

// lookup returns the cached pipeline products for the raw key, marking
// the entry most recently used.
func (c *rawCache) lookup(rawKey string) (*rawEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(rawKey)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// store inserts one successfully-decoded request under the LRU bound.
// First insertion wins on a race; the loser's products are equivalent.
func (c *rawCache) store(rawKey, key string, req *core.WireRequest, funcs []*ir.Func) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Add(rawKey, &rawEntry{key: key, req: req, funcs: funcs})
}
