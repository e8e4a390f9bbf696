package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"npra/internal/faultinject"
	"npra/internal/intra"
	"npra/internal/ir"
)

// degrade implements the pipeline's graceful-degradation policy: when
// the balancing allocator times out or trips an internal failure, fall
// back to the paper's baseline — the IXP1200's even static partition
// (PR = NReg/Nthd per thread, SR = 0) — realized through the same intra
// solver and rewriter, so the result is a real, verified allocation.
//
// Infeasible and invalid-argument failures never reach here (the static
// partition could not fix either). The fallback deliberately ignores the
// caller's expired context: it is the bounded, last-resort path, and its
// cost is one analysis plus one Solve per distinct thread body.
//
// On success the returned Allocation has Degraded == true and Cause set
// to the original (typed) failure, and it has already passed Verify. If
// the fallback itself fails, the original error is returned with the
// fallback's error attached.
func degrade(funcs []*ir.Func, cfg Config, cause error) (alloc *Allocation, err error) {
	// The degrade path runs outside runProtected, so it carries its own
	// panic barrier: a panic here (the self-check seam, Verify itself)
	// must surface as the original cause, never reach the caller raw.
	defer func() {
		if r := recover(); r != nil {
			alloc, err = nil, fmt.Errorf("%w (static-partition fallback panicked: %v)", cause, recovered(r).Value)
		}
	}()
	alloc, err = staticPartition(funcs, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w (static-partition fallback also failed: %v)", cause, err)
	}
	alloc.Degraded = true
	alloc.Cause = cause

	// Self-check the degraded allocation before handing it out: a
	// fallback taken *because* invariants broke must not be trusted on
	// faith. SiteVerify models this check itself failing.
	if err := faultinject.Fire(context.Background(), faultinject.SiteVerify); err != nil {
		return nil, fmt.Errorf("%w (static-partition fallback failed verification: %v)", cause, err)
	}
	if err := alloc.Verify(); err != nil {
		return nil, fmt.Errorf("%w (static-partition fallback failed verification: %v)", cause, err)
	}
	return alloc, nil
}

// staticPartition allocates every thread into an even NReg/Nthd private
// slice with no shared registers, using fresh analyses (the failed
// attempt's allocators may be mid-mutation after a panic). It is panic-
// protected: any panic comes back as a *PanicError.
func staticPartition(funcs []*ir.Func, cfg Config) (alloc *Allocation, err error) {
	defer func() {
		if r := recover(); r != nil {
			alloc, err = nil, recovered(r)
		}
	}()

	n := len(funcs)
	if n == 0 || cfg.NReg <= 0 {
		return nil, invalidf("static partition of %d threads into %d registers", n, cfg.NReg)
	}
	prEach := cfg.NReg / n
	if prEach == 0 {
		return nil, infeasiblef("static partition: %d threads share %d registers", n, cfg.NReg)
	}

	als := make([]*intra.Allocator, n)
	sols := make([]*intra.Solution, n)
	pr := make([]int, n)
	sr := make([]int, n)
	byCode := make(map[string]*intra.Allocator)
	for i, f := range funcs {
		key := f.Key()
		al, ok := byCode[key]
		if !ok {
			var aerr error
			al, aerr = intra.New(f)
			if aerr != nil {
				return nil, aerr
			}
			byCode[key] = al
		}
		sol, serr := al.Solve(prEach, 0)
		if serr != nil {
			return nil, fmt.Errorf("thread %d (%s) does not fit its static %d-register slice: %w",
				i, f.Name, prEach, serr)
		}
		als[i], sols[i], pr[i], sr[i] = al, sol, prEach, 0
	}
	// The fallback never touches the rewrite cache: degraded runs must
	// not warm any tier (matching the AllocatorSource discard rule), and
	// the last resort should not depend on shared state either.
	dcfg := cfg
	dcfg.RewriteCache = nil
	alloc, err = finalize(context.Background(), funcs, nil, als, pr, sr, sols, dcfg)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(byCode))
	for key := range byCode {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		alloc.SolveCache.Add(byCode[key].CacheStats())
	}
	return alloc, nil
}

// degradable reports whether the failure class allows falling back to
// the static partition.
func degradable(err error) bool {
	return err != nil && !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrInfeasible)
}
