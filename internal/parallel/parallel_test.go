package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got := Map(workers, 50, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(i int) int { t.Fatal("fn called"); return 0 }); len(got) != 0 {
		t.Errorf("len = %d", len(got))
	}
}

// One worker must mean a plain serial ascending loop on the calling
// goroutine — the property core relies on for -j 1 reproducing the
// sequential allocator exactly.
func TestSingleWorkerSerialAscending(t *testing.T) {
	var order []int
	ForEach(1, 10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 64
	var cur, peak atomic.Int64
	ForEach(workers, n, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent calls, cap %d", p, workers)
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int32, n)
	ForEach(8, n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
}

func TestMapErrLowestIndexWins(t *testing.T) {
	ctx := context.Background()
	// Serial: the very first failing index is returned and nothing after
	// it runs, so the message is exact.
	_, err := MapErr(ctx, 1, 20, func(i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "fail 1" {
		t.Errorf("workers=1: err = %v, want fail 1", err)
	}
	// Parallel: early-stopping means later odd indices may never run, but
	// the reported error is the lowest-index failure among those that did.
	_, err = MapErr(ctx, 4, 20, func(i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "fail ") {
		t.Errorf("workers=4: err = %v, want some odd-index failure", err)
	}
	got, err := MapErr(ctx, 4, 5, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i+1 {
			t.Errorf("out[%d] = %d", i, v)
		}
	}
}

// A poisoned item at index 0 of a large slice must stop the fan-out
// early: MapErr must not march on and run all remaining items after the
// first failure (the regression this guards: the old implementation
// launched every index regardless).
func TestMapErrStopsAfterFirstError(t *testing.T) {
	const n = 100_000
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		_, err := MapErr(context.Background(), workers, n, func(i int) (int, error) {
			calls.Add(1)
			if i == 0 {
				return 0, errors.New("poisoned")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "poisoned") {
			t.Fatalf("workers=%d: err = %v, want poisoned", workers, err)
		}
		// Workers already past the check may finish their current item;
		// anything near n means early-stop is broken.
		if c := calls.Load(); c > n/10 {
			t.Errorf("workers=%d: %d of %d items ran after a poisoned index 0", workers, c, n)
		}
	}
}

func TestMapErrContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		_, err := MapErr(ctx, workers, 50, func(i int) (int, error) {
			calls.Add(1)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// Cancellation mid-flight also stops the handout.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, err := MapErr(ctx2, 4, 100_000, func(i int) (int, error) {
		if calls.Add(1) == 10 {
			cancel2()
		}
		return i, nil
	})
	cancel2()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight: err = %v, want context.Canceled", err)
	}
	if c := calls.Load(); c > 10_000 {
		t.Errorf("%d items ran after cancellation", c)
	}
}

// Worker panics must not kill the process from a worker goroutine: they
// are transported back and re-raised on the calling goroutine, wrapped
// in *Panic with the worker's stack attached.
func TestPanicTransport(t *testing.T) {
	for _, workers := range []int{2, 8} {
		func() {
			defer func() {
				r := recover()
				p, ok := r.(*Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T (%v), want *Panic", workers, r, r)
				}
				if fmt.Sprint(p.Value) != "boom 3" {
					t.Errorf("workers=%d: panic value %v", workers, p.Value)
				}
				if len(p.Stack) == 0 {
					t.Errorf("workers=%d: no stack captured", workers)
				}
			}()
			ForEach(workers, 10, func(i int) {
				if i == 3 {
					panic(fmt.Sprintf("boom %d", i))
				}
			})
			t.Fatalf("workers=%d: ForEach returned normally", workers)
		}()
	}
}

// Serial execution panics raw on the calling goroutine (no transport
// wrapper) — same goroutine, nothing to transport.
func TestPanicSerialRaw(t *testing.T) {
	defer func() {
		if r := recover(); fmt.Sprint(r) != "raw" {
			t.Errorf("recovered %v, want raw", r)
		}
	}()
	ForEach(1, 3, func(i int) { panic("raw") })
}

// A panicking worker must stop the index handout, and MapErr/Map must
// not hang waiting for the poisoned fan-out.
func TestPanicStopsHandout(t *testing.T) {
	var calls atomic.Int64
	// Item 0 announces its panic before raising it, and every other item
	// waits for that and then lingers: otherwise, while the panicking
	// goroutine is descheduled, the other workers drain the whole range
	// before the stop flag is up.
	dying := make(chan struct{})
	func() {
		defer func() { recover() }()
		ForEach(4, 100_000, func(i int) {
			calls.Add(1)
			if i == 0 {
				close(dying)
				panic("die")
			}
			<-dying
			time.Sleep(time.Millisecond)
		})
	}()
	if c := calls.Load(); c > 10_000 {
		t.Errorf("%d items ran after a panic at index 0", c)
	}
}

func TestMapErrDelayRespectsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := MapErr(ctx, 2, 50, func(i int) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
			return i, nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("took %v to notice the deadline", el)
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		workers, n int
		want       [][2]int
	}{
		{1, 5, [][2]int{{0, 5}}},
		{2, 5, [][2]int{{0, 3}, {3, 5}}},
		{3, 10, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{8, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{4, 0, nil},
	}
	for _, c := range cases {
		got := Chunks(c.workers, c.n)
		if len(got) != len(c.want) {
			t.Errorf("Chunks(%d,%d) = %v, want %v", c.workers, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Chunks(%d,%d)[%d] = %v, want %v", c.workers, c.n, i, got[i], c.want[i])
			}
		}
	}
	// Every index covered exactly once, in order.
	chunks := Chunks(7, 23)
	next := 0
	for _, ch := range chunks {
		if ch[0] != next {
			t.Fatalf("gap at %d: %v", next, chunks)
		}
		next = ch[1]
	}
	if next != 23 {
		t.Fatalf("coverage ends at %d", next)
	}
}
