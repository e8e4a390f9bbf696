package lru

import (
	"math/rand"
	"slices"
	"testing"
)

// model is the reference LRU: an order slice, oldest first, that every
// hit rescans. It is the obviously-correct O(n) shape Cache replaces.
type model struct {
	vals    map[int]int
	order   []int
	cap     int
	evicted [][2]int
}

func (m *model) touch(k int) {
	i := slices.Index(m.order, k)
	m.order = append(slices.Delete(m.order, i, i+1), k)
}

func (m *model) get(k int) (int, bool) {
	v, ok := m.vals[k]
	if ok {
		m.touch(k)
	}
	return v, ok
}

func (m *model) add(k, v int) (int, bool) {
	if old, ok := m.vals[k]; ok {
		m.touch(k)
		return old, false
	}
	m.vals[k] = v
	m.order = append(m.order, k)
	for len(m.order) > m.cap {
		victim := m.order[0]
		m.order = m.order[1:]
		m.evicted = append(m.evicted, [2]int{victim, m.vals[victim]})
		delete(m.vals, victim)
	}
	return v, true
}

// TestMatchesModel drives Cache and the reference model through the
// same random Get/Add sequences and requires identical hits, returned
// values, onEvict arguments in order, Len and eviction counts.
func TestMatchesModel(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		for seed := int64(0); seed < 50; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(capacity)))
			m := &model{vals: map[int]int{}, cap: capacity}
			var evicted [][2]int
			c := New(capacity, func(k, v int) { evicted = append(evicted, [2]int{k, v}) })
			for step := 0; step < 400; step++ {
				k := rng.Intn(2*capacity + 2)
				if rng.Intn(2) == 0 {
					gv, gok := c.Get(k)
					wv, wok := m.get(k)
					if gv != wv || gok != wok {
						t.Fatalf("cap %d seed %d step %d: Get(%d) = %d,%v, model %d,%v", capacity, seed, step, k, gv, gok, wv, wok)
					}
				} else {
					v := rng.Int()
					gv, gok := c.Add(k, v)
					wv, wok := m.add(k, v)
					if gv != wv || gok != wok {
						t.Fatalf("cap %d seed %d step %d: Add(%d) = %d,%v, model %d,%v", capacity, seed, step, k, gv, gok, wv, wok)
					}
				}
				if !slices.Equal(evicted, m.evicted) {
					t.Fatalf("cap %d seed %d step %d: evicted %v, model %v", capacity, seed, step, evicted, m.evicted)
				}
				if c.Len() != len(m.order) || c.Evictions() != int64(len(m.evicted)) {
					t.Fatalf("cap %d seed %d step %d: Len %d Evictions %d, model %d %d",
						capacity, seed, step, c.Len(), c.Evictions(), len(m.order), len(m.evicted))
				}
			}
		}
	}
}

// TestFirstInsertWins: a duplicate Add keeps the resident value, and
// refreshes its recency so the other key is evicted next.
func TestFirstInsertWins(t *testing.T) {
	var evicted []string
	c := New(2, func(k string, _ *int) { evicted = append(evicted, k) })
	first, second := new(int), new(int)
	c.Add("a", first)
	c.Add("b", new(int))
	if got, added := c.Add("a", second); got != first || added {
		t.Fatalf("duplicate Add = %p,%v, want the first pointer %p,false", got, added, first)
	}
	if got, _ := c.Get("a"); got != first {
		t.Fatalf("Get after duplicate Add = %p, want %p", got, first)
	}
	c.Add("c", new(int))
	if !slices.Equal(evicted, []string{"b"}) {
		t.Fatalf("evicted %v, want [b]: the duplicate Add refreshed a", evicted)
	}
}

// TestZeroCapacity: a cache with no capacity holds nothing, evicting
// each entry as it is added.
func TestZeroCapacity(t *testing.T) {
	n := 0
	c := New(0, func(int, int) { n++ })
	c.Add(1, 1)
	if _, ok := c.Get(1); ok || c.Len() != 0 || n != 1 || c.Evictions() != 1 {
		t.Fatalf("zero capacity: hit %v Len %d onEvict %d Evictions %d", ok, c.Len(), n, c.Evictions())
	}
}
