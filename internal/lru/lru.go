// Package lru is the one bounded least-recently-used map under every
// npra cache tier: the result cache in serve, and in funccache the body
// cache, the per-body records and each record's rewrites.
//
// A Cache takes no lock. Each tier already serialises its own access
// (a tier mutex or a shard mutex, which also covers its records'
// rewrites), so the Cache adds no lock edges and costs no second
// acquisition on the request path. Eviction is the only place entries
// leave: a tier that keeps accounting per entry (pooled allocators,
// byte gauges) settles it in the onEvict callback.
package lru

// node is one resident entry on the recency ring.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// Cache is a bounded LRU map. It is not safe for concurrent use; the
// caller serialises every method. The zero value is not usable;
// construct with New.
type Cache[K comparable, V any] struct {
	items     map[K]*node[K, V]
	root      node[K, V] // sentinel: root.next is most recent, root.prev least
	capacity  int
	onEvict   func(K, V)
	evictions int64
}

// New returns an empty cache holding at most capacity entries (none
// when capacity <= 0). onEvict, when non-nil, is called with each entry
// Add evicts, after it has left the cache and before Add returns.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{items: make(map[K]*node[K, V]), capacity: max(capacity, 0), onEvict: onEvict}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under k; a hit makes k the most
// recently used entry.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.toFront(n)
	return n.val, true
}

// Add caches v under k unless k is already resident. The first
// insertion wins: Add returns the resident value and whether it is v,
// and either way k becomes the most recently used entry. Entries past
// the capacity are then evicted, least recently used first.
func (c *Cache[K, V]) Add(k K, v V) (V, bool) {
	if n, ok := c.items[k]; ok {
		c.toFront(n)
		return n.val, false
	}
	n := &node[K, V]{key: k, val: v}
	c.items[k] = n
	c.toFront(n)
	for len(c.items) > c.capacity {
		old := c.root.prev
		c.unlink(old)
		delete(c.items, old.key)
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(old.key, old.val)
		}
	}
	return v, true
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Evictions returns how many entries Add has evicted.
func (c *Cache[K, V]) Evictions() int64 { return c.evictions }

// toFront links n (resident or new) in as the most recent entry.
func (c *Cache[K, V]) toFront(n *node[K, V]) {
	if n.prev != nil {
		c.unlink(n)
	}
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
}

// Stats is the counter snapshot of a tier that counts plain hits and
// misses over one Cache (the body tier).
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int64
}
