package funccache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"npra/internal/ir"
	"npra/internal/progen"
)

// genFunc generates the deterministic progen body for seed. Each call
// returns a fresh *ir.Func, so content keying (not pointer identity) is
// what makes two calls with one seed hit the same entry.
func genFunc(t *testing.T, seed int64) *ir.Func {
	t.Helper()
	f := progen.GenerateStructured(rand.New(rand.NewSource(seed)), progen.StructuredConfig{
		MaxDepth: 2, MaxBodyLen: 6, MaxTripCnt: 4, MaxVars: 8, StoreWindow: 64,
	})
	f.Name = fmt.Sprintf("k%d", seed)
	return f
}

// exercise runs one checkout/solve/checkin cycle and returns whether
// the checkout was warm (== the pre-call hit counter advanced).
func exercise(t *testing.T, c *Cache, f *ir.Func, ok bool) {
	t.Helper()
	al, checkin, err := c.Checkout(f, f.Key())
	if err != nil {
		t.Fatalf("Checkout(%s): %v", f.Name, err)
	}
	b := al.Bounds()
	if _, err := al.Solve(b.MinPR, b.MaxR-b.MinPR); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	checkin(ok)
}

func TestMissThenContentKeyedHit(t *testing.T) {
	c := New(Config{})
	exercise(t, c, genFunc(t, 1), true)
	// A fresh *ir.Func with identical text must hit: the key is the
	// body's content hash, not the pointer.
	exercise(t, c, genFunc(t, 1), true)
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss then 1 hit", st)
	}
	if st.Entries != 1 || st.Idle != 1 {
		t.Errorf("stats = %+v, want 1 entry with 1 idle allocator", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("Bytes = %d, want positive once an allocator is pooled", st.Bytes)
	}
}

// TestEvictionOrderDeterministic pins the strict-LRU contract on a
// single shard: with capacity 2, filling A,B,C evicts A; touching B
// then adding D evicts C (B was more recently used). The pattern is
// observed through hit/miss transitions, which makes the order fully
// deterministic for serial use.
func TestEvictionOrderDeterministic(t *testing.T) {
	a, b, cc, d := genFunc(t, 1), genFunc(t, 2), genFunc(t, 3), genFunc(t, 4)
	for round := 0; round < 2; round++ { // same sequence twice: same counters
		c := New(Config{Entries: 2, Shards: 1})
		exercise(t, c, a, true)
		exercise(t, c, b, true)
		exercise(t, c, cc, true) // evicts a
		if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
			t.Fatalf("round %d after C: stats = %+v, want 1 eviction, 2 entries", round, st)
		}
		exercise(t, c, b, true)  // touch b: now c is LRU
		exercise(t, c, d, true)  // evicts c
		exercise(t, c, b, true)  // still resident: hit
		exercise(t, c, cc, true) // evicted: miss (evicts b... order continues)
		st := c.Stats()
		if st.Misses != 5 || st.Hits != 2 || st.Evictions != 3 {
			t.Errorf("round %d: stats = %+v, want misses=5 hits=2 evictions=3", round, st)
		}
	}
}

// TestFailedRunsNeverCached is the degraded/error regression at the
// cache layer: checkin(false) must leave no entry and no idle
// allocator, whether the body was new (install skipped) or warm
// (allocator dropped).
func TestFailedRunsNeverCached(t *testing.T) {
	c := New(Config{})
	f := genFunc(t, 7)
	exercise(t, c, f, false) // first completion fails: no entry installed
	st := c.Stats()
	if st.Entries != 0 || st.Idle != 0 || st.Discards != 1 {
		t.Fatalf("after failed first run: stats = %+v, want no entry, 1 discard", st)
	}
	exercise(t, c, f, true) // clean run installs
	exercise(t, c, f, false)
	st = c.Stats()
	// The failed warm run checked the pooled allocator out and dropped
	// it: the entry (and its shared analysis) survives, the allocator
	// does not.
	if st.Entries != 1 || st.Idle != 0 {
		t.Errorf("after failed warm run: stats = %+v, want entry kept, allocator dropped", st)
	}
	if st.Discards != 2 {
		t.Errorf("Discards = %d, want 2", st.Discards)
	}
	exercise(t, c, f, true) // a clean run repools
	if st = c.Stats(); st.Idle != 1 {
		t.Errorf("after clean rerun: Idle = %d, want the pool refilled", st.Idle)
	}
	if st.Bytes < 0 {
		t.Errorf("Bytes = %d went negative", st.Bytes)
	}
}

// TestPoolOverflowAbsorb drains the idle pool with concurrent-style
// checkouts and verifies overflow checkins fold into the pool (memo
// kept, allocator dropped) instead of growing it past MaxIdle.
func TestPoolOverflowAbsorb(t *testing.T) {
	c := New(Config{MaxIdle: 1})
	f := genFunc(t, 9)
	exercise(t, c, f, true) // install + pool one

	al1, ci1, err := c.Checkout(f, f.Key()) // pops the pooled allocator
	if err != nil {
		t.Fatal(err)
	}
	al2, ci2, err := c.Checkout(f, f.Key()) // pool empty: overflow over shared analysis
	if err != nil {
		t.Fatal(err)
	}
	if al1 == al2 {
		t.Fatal("two live checkouts returned the same allocator")
	}
	if al1.A != al2.A {
		t.Error("overflow allocator not built over the shared analysis")
	}
	b := al2.Bounds()
	if _, err := al2.Solve(b.MinPR, b.MaxR-b.MinPR); err != nil {
		t.Fatal(err)
	}
	ci1(true) // pool has room again: recycled
	ci2(true) // pool full: absorbed + discarded
	st := c.Stats()
	if st.Idle != 1 {
		t.Errorf("Idle = %d, want MaxIdle=1 respected", st.Idle)
	}
	if st.Discards != 1 {
		t.Errorf("Discards = %d, want the overflow checkin folded away", st.Discards)
	}
	// The absorbed Solve must now be warm in the pooled allocator.
	al3, ci3, err := c.Checkout(f, f.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !al3.HasSolved(b.MinPR, b.MaxR-b.MinPR) {
		t.Error("overflow allocator's Solve memo was not absorbed into the pool")
	}
	ci3(true)
}

func TestCheckinIdempotent(t *testing.T) {
	c := New(Config{})
	f := genFunc(t, 11)
	al, checkin, err := c.Checkout(f, f.Key())
	if err != nil {
		t.Fatal(err)
	}
	_ = al
	checkin(true)
	checkin(true) // second call must be a no-op, not a double-pool
	checkin(false)
	if st := c.Stats(); st.Idle != 1 || st.Discards != 0 {
		t.Errorf("stats = %+v, want exactly one pooled allocator", st)
	}
}

// TestConcurrentCheckouts hammers a small cache from many goroutines
// (run under -race in CI): duplicate and distinct bodies, interleaved
// failures, and an Entries bound tight enough to force eviction races
// against in-flight checkins.
func TestConcurrentCheckouts(t *testing.T) {
	c := New(Config{Entries: 4, Shards: 2, MaxIdle: 2})
	funcs := make([]*ir.Func, 6)
	for i := range funcs {
		funcs[i] = genFunc(t, int64(100+i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f := funcs[(w+i)%len(funcs)]
				al, checkin, err := c.Checkout(f, f.Key())
				if err != nil {
					t.Errorf("Checkout: %v", err)
					return
				}
				b := al.Bounds()
				if _, err := al.Solve(b.MinPR, b.MaxR-b.MinPR); err != nil {
					t.Errorf("Solve: %v", err)
					checkin(false)
					return
				}
				checkin(i%7 != 0) // sprinkle failures among the successes
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*40 {
		t.Errorf("hits+misses = %d, want every checkout counted", st.Hits+st.Misses)
	}
	if st.Entries > 4 {
		t.Errorf("Entries = %d exceeds the bound", st.Entries)
	}
	if st.Idle < 0 || st.Bytes < 0 {
		t.Errorf("negative gauges: %+v", st)
	}
}

// TestShardBoundSumsToEntries pins Config.Entries as a hard bound at the
// default shard count: the per-shard capacities split the remainder, so
// no hash skew lets the shards together hold more than Entries bodies.
func TestShardBoundSumsToEntries(t *testing.T) {
	var funcs []*ir.Func
	for seed := int64(1); seed <= 64; seed++ {
		funcs = append(funcs, genFunc(t, seed))
	}
	for entries := 1; entries <= 20; entries++ {
		c := New(Config{Entries: entries})
		for _, f := range funcs {
			_, checkin, err := c.Checkout(f, f.Key())
			if err != nil {
				t.Fatalf("Checkout(%s): %v", f.Name, err)
			}
			checkin(true)
			if st := c.Stats(); st.Entries > int64(entries) {
				t.Fatalf("Entries %d: cache holds %d bodies", entries, st.Entries)
			}
		}
	}
}
