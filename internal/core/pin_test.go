package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"npra/internal/ig"
	"npra/internal/intra"
	"npra/internal/ir"
)

// finalizingSource builds a fresh allocator per checkout and counts how
// many of their analyses the collector has freed.
type finalizingSource struct{ freed atomic.Int32 }

func (s *finalizingSource) Checkout(f *ir.Func, _ string) (*intra.Allocator, func(bool), error) {
	al, err := intra.New(f)
	if err != nil {
		return nil, nil, err
	}
	runtime.SetFinalizer(al.A, func(*ig.Analysis) { s.freed.Add(1) })
	return al, func(bool) {}, nil
}

// TestAllocationDoesNotPinAnalysis: a served Allocation outlives its
// request in the result cache, so it must not keep the per-thread
// analyses (liveness, NSR, interference graph) reachable once the
// allocators are checked in.
func TestAllocationDoesNotPinAnalysis(t *testing.T) {
	src := &finalizingSource{}
	alloc, err := AllocateARA([]*ir.Func{ir.MustParse(fig3t1), ir.MustParse(fig3t2)}, Config{NReg: 16, FuncCache: src})
	if err != nil {
		t.Fatalf("AllocateARA: %v", err)
	}
	// Finalizers run on their own goroutine after the cycle that frees
	// the object; give them a few cycles.
	for i := 0; i < 50 && src.freed.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := src.freed.Load(); n != 2 {
		t.Errorf("%d of 2 analyses collected while the Allocation is live", n)
	}
	runtime.KeepAlive(alloc)
}
