// Package core implements the paper's primary contribution: balancing
// register allocation across the threads of a multithreaded network
// processor (PLDI 2004, Zhuang & Pande).
//
// Each processing unit runs Nthd threads over one shared file of Nreg
// general-purpose registers. Context switches save only the PC, so any
// value live across a switch must sit in a register no other thread
// touches (a private register); values confined between switches may use
// registers shared by all threads. The allocator decides, per thread, how
// many private registers (PR) and shared registers (SR) it gets —
// satisfying
//
//	sum_i PR_i + max_i SR_i <= Nreg
//
// — starting from each thread's move-free demand (MaxPR, MaxSR) and
// greedily reducing whichever register costs the fewest inserted move
// instructions (Figure 8 of the paper), with the intra-thread allocator
// (package intra) pricing and realizing each reduction by live-range
// splitting.
//
// # Failure model
//
// The allocation entry points never panic the caller: panics anywhere in
// the pipeline (including inside parallel workers) are recovered at the
// API boundary and surfaced as errors wrapping ErrInternal. Every error
// wraps exactly one taxonomy sentinel (ErrInvalid, ErrInfeasible,
// ErrTimeout, ErrInternal; see errors.go), and on timeout or internal
// failure the allocator degrades to the hardware's even static partition
// (PR = NReg/Nthd, SR = 0) instead of failing, returning a verified
// Allocation with Degraded set — the paper's own baseline is always a
// correct fallback. Deadlines and cancellation arrive through the
// context accepted by AllocateARACtx / AllocateSRACtx.
package core

import (
	"context"
	"fmt"
	"time"

	"npra/internal/estimate"
	"npra/internal/faultinject"
	"npra/internal/intra"
	"npra/internal/ir"
	"npra/internal/parallel"
)

// Config parameterizes a processing unit.
type Config struct {
	// NReg is the size of the shared register file (128 on the IXP1200).
	NReg int

	// Critical optionally weights each thread's move cost; a weight > 1
	// makes the inter-thread allocator more reluctant to take registers
	// from that thread. Nil means uniform weights. Length must match the
	// thread count when non-nil.
	Critical []float64

	// Workers bounds the goroutines used to price reduction candidates
	// (and to run the initial per-thread Solve fan-out and the SRA
	// sweep). 0 means runtime.GOMAXPROCS(0); 1 runs serially. The result
	// is bit-identical for every worker count: pricing is a pure fan-out
	// over per-thread allocators and the winning reduction is selected
	// serially with lowest-thread-index tie-breaking.
	Workers int

	// FuncCache, when non-nil, supplies per-function allocators whose
	// analyses and memo tables survive across engine invocations
	// (internal/funccache). Nil builds fresh allocators per invocation.
	// The allocation result is bit-identical either way; only the work
	// repeated per request changes. Allocators drawn from the source are
	// returned on completion, and discarded instead when the run fails,
	// degrades or panics — error results never warm the cache.
	FuncCache AllocatorSource

	// RewriteCache, when non-nil, memoizes the rewrite phase: finalize
	// consults it before emitting code and registers canonical-palette
	// emissions with it on a miss (internal/funccache.Cache is the
	// process-wide implementation; one Cache serves as FuncCache too).
	// Cached bodies are frozen and shared by pointer; the result is
	// textually identical to a fresh rewrite.
	// Nil rewrites every thread from scratch (into a per-call ir.Arena).
	// The degrade path never consults the cache.
	RewriteCache RewriteSource
}

// ThreadAlloc is the allocation decided for one thread.
type ThreadAlloc struct {
	Name   string
	PR, SR int // private registers granted, shared registers usable
	Cost   int // move instructions the split schedule implies

	Bounds     estimate.Bounds
	LiveRanges int // pieces after splitting

	PrivBase int // first private register index in the file

	F     *ir.Func // rewritten code over physical registers
	Stats intra.RewriteStats
}

// Allocation is the result for a whole processing unit.
type Allocation struct {
	NReg    int
	SGR     int // globally shared registers (max_i SR used)
	Threads []*ThreadAlloc

	// Degraded marks an allocation produced by the static-partition
	// fallback (PR = NReg/Nthd, SR = 0) after the balancing allocator
	// timed out or failed internally. A degraded allocation is still
	// verified and semantics-preserving — it just forgoes the paper's
	// register-sharing win. Cause carries the failure that triggered the
	// fallback; it wraps ErrTimeout or ErrInternal.
	Degraded bool
	Cause    error

	// SolveCache aggregates the Solve-point cache counters of every
	// intra-thread allocator this allocation consulted.
	SolveCache intra.CacheStats

	// Phases aggregates the per-phase wall-clock breakdown (analysis,
	// estimation, chain coloring, rewriting) across the same allocators,
	// plus the rewrite time spent in finalize.
	Phases intra.PhaseStats
}

// TotalRegisters returns sum(PR) + SGR, the register-file footprint.
func (al *Allocation) TotalRegisters() int {
	total := al.SGR
	for _, t := range al.Threads {
		total += t.PR
	}
	return total
}

// SharedBase returns the first register index of the shared bank.
func (al *Allocation) SharedBase() int { return al.NReg - al.SGR }

// AllocateARA runs the asymmetric inter-thread allocation (different code
// on each thread) for the given thread functions, with no deadline.
func AllocateARA(funcs []*ir.Func, cfg Config) (*Allocation, error) {
	return AllocateARACtx(context.Background(), funcs, cfg)
}

// AllocateARACtx is AllocateARA under a context: the allocator checks
// ctx between setup solves, pricing probes and greedy rounds, and on
// expiry (or cancellation) degrades to the static partition rather than
// running on. It never panics: internal panics come back as errors
// wrapping ErrInternal (after the same degradation attempt). The only
// error classes that escape without a fallback attempt are ErrInvalid
// and ErrInfeasible — for those the static partition cannot help.
func AllocateARACtx(ctx context.Context, funcs []*ir.Func, cfg Config) (*Allocation, error) {
	if len(funcs) == 0 {
		return nil, invalidf("no threads")
	}
	if cfg.NReg <= 0 {
		return nil, invalidf("NReg = %d", cfg.NReg)
	}
	if cfg.Critical != nil && len(cfg.Critical) != len(funcs) {
		return nil, invalidf("%d critical weights for %d threads", len(cfg.Critical), len(funcs))
	}
	alloc, err := runProtected(func() (*Allocation, error) { return allocateARA(ctx, funcs, cfg) })
	if err == nil {
		return alloc, nil
	}
	err = classify(err)
	if !degradable(err) {
		return nil, err
	}
	return degrade(funcs, cfg, err)
}

// runProtected invokes fn with a panic barrier: a panic on the calling
// goroutine — including one transported out of a parallel worker —
// becomes a *PanicError (which wraps ErrInternal).
func runProtected(fn func() (*Allocation, error)) (alloc *Allocation, err error) {
	defer func() {
		if r := recover(); r != nil {
			alloc, err = nil, recovered(r)
		}
	}()
	return fn()
}

// allocateARA is the balancing allocator proper (paper Figure 8). Errors
// come back unclassified; AllocateARACtx maps them onto the taxonomy.
func allocateARA(ctx context.Context, funcs []*ir.Func, cfg Config) (*Allocation, error) {
	weight := func(i int) float64 {
		if cfg.Critical == nil {
			return 1
		}
		return cfg.Critical[i]
	}

	workers := parallel.Workers(cfg.Workers)
	n := len(funcs)

	// Threads running identical code (Table 3's md5 x2, any SRA-like
	// mix) share one incremental allocator and thus one Solve cache:
	// the program is analyzed once per distinct code body and duplicate
	// probes become cache hits. groups lists, per distinct body, the
	// member thread indices in ascending order; all fan-out below is
	// per group, because an allocator is not safe for concurrent use.
	// keys holds each thread's FuncKey, hashed here once for the whole
	// run: the caches behind cfg take it instead of hashing again.
	var groups [][]int
	keys := make([]string, n)
	byCode := make(map[string]int)
	for i, f := range funcs {
		key := f.Key()
		keys[i] = key
		g, ok := byCode[key]
		if !ok {
			g = len(groups)
			byCode[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}

	als := make([]*intra.Allocator, n)
	bounds := make([]estimate.Bounds, n)
	pr := make([]int, n)
	sr := make([]int, n)
	sols := make([]*intra.Solution, n)

	// Checked-out allocators go back to the source exactly once, from
	// this goroutine, after every fan-out below has fully drained
	// (parallel.MapErr always waits for in-flight calls). ok is flipped
	// only on the clean-return path, so an error or a panic unwinding
	// through here discards the allocators instead of recycling them —
	// this defer must NOT recover: the panic barrier lives in
	// runProtected. Counters read from any acquired allocator cover the
	// current run only (a warm source resets them when pooling), so the
	// final stats aggregation needs no before/after bookkeeping.
	checkins := make([]func(bool), len(groups))
	ok := false
	defer func() {
		for _, checkin := range checkins {
			if checkin != nil {
				checkin(ok)
			}
		}
	}()

	// Per-group analysis and the first Solves are independent across
	// groups, so the setup fans out.
	if _, err := parallel.MapErr(ctx, workers, len(groups), func(g int) (struct{}, error) {
		f0 := funcs[groups[g][0]]
		al, checkin, err := acquire(cfg, f0, keys[groups[g][0]])
		if err != nil {
			return struct{}{}, fmt.Errorf("core: thread %d (%s): %w", groups[g][0], f0.Name, err)
		}
		checkins[g] = checkin
		b := al.Bounds()
		for _, i := range groups[g] {
			if err := parallel.CtxErr(ctx); err != nil {
				return struct{}{}, err
			}
			if err := faultinject.Fire(ctx, faultinject.SiteSolve); err != nil {
				return struct{}{}, err
			}
			als[i] = al
			bounds[i] = b
			// Start PR at the move-free demand and SR with enough slack
			// that the monotone reduction loop can reach every frontier
			// point: a thread at (MaxPR, MaxSR) could never drop PR below
			// MaxR - SR without first *raising* SR, which the paper's
			// loop has no move for. SR slack beyond what the thread uses
			// is free (zero-cost SR reductions trim it immediately when
			// it matters).
			pr[i], sr[i] = b.MaxPR, b.MaxR-b.MinPR
			sol, err := al.Solve(pr[i], sr[i])
			if err != nil {
				return struct{}{}, fmt.Errorf("core: thread %d (%s): %w", i, funcs[i].Name, err)
			}
			sols[i] = sol
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}

	demand := func() int {
		total, maxSR := 0, 0
		for i := 0; i < n; i++ {
			total += pr[i]
			if sr[i] > maxSR {
				maxSR = sr[i]
			}
		}
		return total + maxSR
	}

	// candidates holds one thread's priced reduction options for one
	// round. A nil Solution means the option is illegal or infeasible
	// for that thread this round.
	type candidates struct {
		aSol *intra.Solution // Option A: (pr-1, sr)
		bSol *intra.Solution // Option B membership: (pr, sr-1)
		bIn  bool            // thread belongs to the maximal-SR set
		cSol *intra.Solution // Option C trade: (pr-1, sr+1)
	}

	// Greedy reduction (paper Figure 8): while over budget, price every
	// single-register reduction and take the cheapest. Pricing fans out
	// per group — each group's candidate Solves run serially on its own
	// allocator (allocators are not safe for concurrent use, but
	// distinct groups' allocators never share mutable state) — and the
	// winner is then selected serially: Option A in ascending thread
	// order, then B, then C, with strict less-than comparisons, so the
	// lowest thread index (and earliest option) wins equal costs and the
	// allocation is identical for every worker count.
	for demand() > cfg.NReg {
		if err := parallel.CtxErr(ctx); err != nil {
			return nil, err
		}
		maxSR := 0
		for i := 0; i < n; i++ {
			if sr[i] > maxSR {
				maxSR = sr[i]
			}
		}
		curDemand := demand()

		price := func(i int) candidates {
			var cand candidates
			b := bounds[i]
			// Option A: reduce this thread's PR by 1.
			if pr[i]-1 >= b.MinPR && pr[i]-1+sr[i] >= b.MinR {
				if sol, err := als[i].Solve(pr[i]-1, sr[i]); err == nil {
					cand.aSol = sol
				}
			}
			// Option B: every maximal SR drops by 1 together (only that
			// lowers the max term); this thread prices its own share.
			if maxSR > 0 && sr[i] == maxSR {
				cand.bIn = true
				if pr[i]+sr[i]-1 >= b.MinR {
					if sol, err := als[i].Solve(pr[i], sr[i]-1); err == nil {
						cand.bSol = sol
					}
				}
			}
			// Option C (beyond the paper's Figure 8): a trade. A thread
			// can wedge at its R = MinR floor with PR still above MinPR —
			// then neither a plain PR nor SR reduction is legal, but
			// converting a private register into a shared one (PR-1,
			// SR+1) shrinks the global demand when that thread's SR is
			// below the maximum, and even a demand-neutral trade is
			// useful as a stepping stone (it raises the shared pool
			// another thread's trade can then hide under). Termination:
			// every step either shrinks the demand or shrinks some PR,
			// and neither ever grows.
			if pr[i]-1 >= b.MinPR && pr[i]-1+sr[i] < b.MinR {
				tot, newMaxSR := 0, 0
				for j := 0; j < n; j++ {
					p, s := pr[j], sr[j]
					if j == i {
						p, s = p-1, s+1
					}
					tot += p
					if s > newMaxSR {
						newMaxSR = s
					}
				}
				if tot+newMaxSR <= curDemand {
					if sol, err := als[i].Solve(pr[i]-1, sr[i]+1); err == nil {
						cand.cSol = sol
					}
				}
			}
			return cand
		}
		probes := make([]candidates, n)
		if _, err := parallel.MapErr(ctx, workers, len(groups), func(g int) (struct{}, error) {
			for _, i := range groups[g] {
				if err := parallel.CtxErr(ctx); err != nil {
					return struct{}{}, err
				}
				if err := faultinject.Fire(ctx, faultinject.SitePricing); err != nil {
					return struct{}{}, err
				}
				probes[i] = price(i)
			}
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}

		type option struct {
			deltaCost float64
			apply     func()
		}
		var best *option

		// Option A, ascending thread order.
		for i := 0; i < n; i++ {
			sol := probes[i].aSol
			if sol == nil {
				continue
			}
			d := weight(i) * float64(sol.Cost-sols[i].Cost)
			if best == nil || d < best.deltaCost {
				ci, csol := i, sol
				best = &option{deltaCost: d, apply: func() {
					pr[ci]--
					sols[ci] = csol
				}}
			}
		}

		// Option B: aggregate the maximal-SR members; infeasible if any
		// member cannot give up a register.
		if maxSR > 0 {
			feasible := true
			var newSols []*intra.Solution
			var members []int
			total := 0.0
			for i := 0; i < n; i++ {
				if !probes[i].bIn {
					continue
				}
				if probes[i].bSol == nil {
					feasible = false
					break
				}
				total += weight(i) * float64(probes[i].bSol.Cost-sols[i].Cost)
				newSols = append(newSols, probes[i].bSol)
				members = append(members, i)
			}
			if feasible && (best == nil || total < best.deltaCost) {
				best = &option{deltaCost: total, apply: func() {
					for k, i := range members {
						sr[i]--
						sols[i] = newSols[k]
					}
				}}
			}
		}

		// Option C, ascending thread order.
		for i := 0; i < n; i++ {
			sol := probes[i].cSol
			if sol == nil {
				continue
			}
			d := weight(i) * float64(sol.Cost-sols[i].Cost)
			if best == nil || d < best.deltaCost {
				ci, csol := i, sol
				best = &option{deltaCost: d, apply: func() {
					pr[ci]--
					sr[ci]++
					sols[ci] = csol
				}}
			}
		}

		if best == nil {
			detail := ""
			for i := 0; i < n; i++ {
				b := bounds[i]
				detail += fmt.Sprintf(" [%d: PR=%d SR=%d minPR=%d minR=%d]", i, pr[i], sr[i], b.MinPR, b.MinR)
			}
			return nil, infeasiblef(
				"cannot fit %d threads into %d registers (demand %d at the splitting lower bounds;%s)",
				n, cfg.NReg, demand(), detail)
		}
		best.apply()
	}

	if err := faultinject.Fire(ctx, faultinject.SiteFinalize); err != nil {
		return nil, err
	}
	alloc, err := finalize(ctx, funcs, keys, als, pr, sr, sols, cfg)
	if err != nil {
		return nil, err
	}
	for _, g := range groups {
		alloc.SolveCache.Add(als[g[0]].CacheStats())
		alloc.Phases.Add(als[g[0]].PhaseStats())
	}
	ok = true
	return alloc, nil
}

// finalize maps palette colors onto the physical register file and
// rewrites every thread, checking ctx between threads (rewrites are the
// tail of the pipeline's work; a deadline must be able to land here too).
// The degrade path passes context.Background(): the fallback is the
// bounded last resort and must not itself be cancelable.
//
// With cfg.RewriteCache set, each thread's body is looked up by
// (keys[i], PR, SR, privBase, sharedBase), keys[i] being funcs[i]'s
// FuncKey (keys may be nil without a cache), and — on a miss — emitted
// once in canonical form (identity palette) and registered with the
// cache, which relocates it onto the concrete palette. Cache time is
// booked under RewriteCachedNS, fresh emission under RewriteNS. With no
// cache the bodies are emitted directly into a per-call ir.Arena so the
// cold path costs the collector a few slabs instead of one allocation
// per block.
func finalize(ctx context.Context, funcs []*ir.Func, keys []string, als []*intra.Allocator, pr, sr []int, sols []*intra.Solution, cfg Config) (*Allocation, error) {
	n := len(funcs)
	nreg := cfg.NReg
	alloc := &Allocation{NReg: nreg}
	var arena *ir.Arena
	if cfg.RewriteCache == nil {
		arena = new(ir.Arena)
	}

	// SGR: shared registers actually needed is the max over threads of
	// (palette size - private grant), never negative.
	sgr := 0
	for i := 0; i < n; i++ {
		if need := sols[i].Ctx.Size - pr[i]; need > sgr {
			sgr = need
		}
	}
	alloc.SGR = sgr
	sharedBase := nreg - sgr

	base := 0
	for i := 0; i < n; i++ {
		if err := parallel.CtxErr(ctx); err != nil {
			return nil, err
		}
		sctx := sols[i].Ctx
		if base+pr[i] > sharedBase {
			return nil, internalf("private registers overflow into shared bank")
		}
		rwStart := time.Now() //lint:ignore detlint phase-timing observability only; duration never feeds an allocation decision
		var nf *ir.Func
		var stats intra.RewriteStats
		if rc := cfg.RewriteCache; rc != nil {
			privBase, shBase := ir.Reg(base), ir.Reg(sharedBase)
			if hit, hstats, ok := rc.LookupRewrite(keys[i], pr[i], sr[i], privBase, shBase); ok {
				nf, stats = hit, hstats
				alloc.Phases.RewriteCachedNS += time.Since(rwStart).Nanoseconds()
			} else {
				// Emit once in canonical form — the identity palette maps
				// color c to register c — and let the cache relocate it
				// onto this palette (and any future one at the same grant).
				identity := make([]ir.Reg, sctx.Size)
				for c := range identity {
					identity[c] = ir.Reg(c)
				}
				canon, cstats, err := intra.Rewrite(sctx, identity)
				if err != nil {
					return nil, internalf("thread %d (%s): rewrite: %v", i, funcs[i].Name, err)
				}
				nf = rc.StoreRewrite(keys[i], pr[i], sr[i], privBase, shBase, canon, cstats)
				stats = cstats
				alloc.Phases.RewriteNS += time.Since(rwStart).Nanoseconds()
			}
		} else {
			phys := make([]ir.Reg, sctx.Size)
			for c := 0; c < sctx.Size; c++ {
				switch {
				case c < pr[i]:
					phys[c] = ir.Reg(base + c)
				default:
					phys[c] = ir.Reg(sharedBase + (c - pr[i]))
				}
			}
			var err error
			nf, stats, err = intra.RewriteInto(sctx, phys, arena)
			alloc.Phases.RewriteNS += time.Since(rwStart).Nanoseconds()
			if err != nil {
				return nil, internalf("thread %d (%s): rewrite: %v", i, funcs[i].Name, err)
			}
		}
		alloc.Threads = append(alloc.Threads, &ThreadAlloc{
			Name:       funcs[i].Name,
			PR:         pr[i],
			SR:         sr[i],
			Cost:       sols[i].Cost,
			Bounds:     als[i].Bounds(),
			LiveRanges: len(sctx.Pieces),
			PrivBase:   base,
			F:          nf,
			Stats:      stats,
		})
		base += pr[i]
	}
	return alloc, nil
}

// AllocateSRA solves the symmetric problem (the same code on all nthd
// threads) exactly, as §8 of the paper suggests: traverse the 1-D space
// nthd*PR + SR <= NReg and keep the cheapest (fewest moves) solution,
// breaking ties toward the smallest register footprint.
//
// With cfg.Workers != 1 the sweep fans out: the candidate (PR, SR) list
// is split into contiguous chunks, each priced by its own allocator over
// the shared analysis, and the winner is selected by a serial scan in
// ascending-PR order with strict comparisons — the same point the serial
// sweep picks, since Solve is a pure function of the budget.
func AllocateSRA(f *ir.Func, nthd int, cfg Config) (*Allocation, error) {
	return AllocateSRACtx(context.Background(), f, nthd, cfg)
}

// AllocateSRACtx is AllocateSRA under a context, with the same failure
// model as AllocateARACtx: typed errors, panic recovery at the boundary,
// and static-partition degradation on timeout or internal failure.
func AllocateSRACtx(ctx context.Context, f *ir.Func, nthd int, cfg Config) (*Allocation, error) {
	if f == nil {
		return nil, invalidf("nil function")
	}
	if nthd <= 0 {
		return nil, invalidf("nthd = %d", nthd)
	}
	if cfg.NReg <= 0 {
		return nil, invalidf("NReg = %d", cfg.NReg)
	}
	alloc, err := runProtected(func() (*Allocation, error) { return allocateSRA(ctx, f, nthd, cfg) })
	if err == nil {
		return alloc, nil
	}
	err = classify(err)
	if !degradable(err) {
		return nil, err
	}
	funcs := make([]*ir.Func, nthd)
	for i := range funcs {
		funcs[i] = f
	}
	return degrade(funcs, cfg, err)
}

func allocateSRA(ctx context.Context, f *ir.Func, nthd int, cfg Config) (*Allocation, error) {
	workers := parallel.Workers(cfg.Workers)
	key := ""
	if cfg.FuncCache != nil || cfg.RewriteCache != nil {
		key = f.Key() // the one hash of the body the caches share
	}
	al, checkin, err := acquire(cfg, f, key)
	if err != nil {
		return nil, err
	}
	// Same checkin discipline as allocateARA: return the allocator once,
	// from this goroutine, discarding it unless the run finished cleanly.
	ok := false
	defer func() { checkin(ok) }()
	b := al.Bounds()

	// The 1-D candidate frontier: for each PR, the largest useful SR.
	type cand struct{ p, s int }
	var cands []cand
	for p := b.MinPR; p <= cfg.NReg/nthd; p++ {
		srMax := cfg.NReg - nthd*p
		if srMax < 0 {
			break
		}
		s := srMax
		if cap := b.MaxR - p; s > cap {
			if cap < 0 {
				cap = 0
			}
			s = cap // more shared than MaxR-p is never used
		}
		cands = append(cands, cand{p, s})
	}

	// A warm allocator may already hold most of the frontier from an
	// earlier sweep of the same body; replaying those points serially is
	// pure memo lookups and beats paying per-chunk allocator setup to
	// recompute them. Solve is a pure function of the budget, so the
	// serial and chunked sweeps pick the identical winner either way.
	warm := 0
	for _, c := range cands {
		if al.HasSolved(c.p, c.s) {
			warm++
		}
	}
	sweepAls := []*intra.Allocator{al}
	swept := make([]*intra.Solution, len(cands))
	if workers <= 1 || len(cands) <= 1 || warm*2 >= len(cands) {
		for ci, c := range cands {
			if err := parallel.CtxErr(ctx); err != nil {
				return nil, err
			}
			if err := faultinject.Fire(ctx, faultinject.SiteSolve); err != nil {
				return nil, err
			}
			sol, err := al.Solve(c.p, c.s)
			if err != nil {
				continue
			}
			swept[ci] = sol
			if sol.Cost == 0 && c.p == b.MinPR {
				break // cannot do better than zero moves at minimal PR
			}
		}
	} else {
		chunks := parallel.Chunks(workers, len(cands))
		chunkAls := make([]*intra.Allocator, len(chunks))
		if _, err := parallel.MapErr(ctx, workers, len(chunks), func(k int) (struct{}, error) {
			// One allocator per chunk: the sweep points inside a chunk
			// share its context-derivation memo, and the analysis behind
			// all of them is shared read-only.
			cal, err := intra.NewFromAnalysis(al.A)
			if err != nil {
				return struct{}{}, err
			}
			chunkAls[k] = cal
			for ci := chunks[k][0]; ci < chunks[k][1]; ci++ {
				if err := parallel.CtxErr(ctx); err != nil {
					return struct{}{}, err
				}
				if err := faultinject.Fire(ctx, faultinject.SiteSolve); err != nil {
					return struct{}{}, err
				}
				if sol, err := cal.Solve(cands[ci].p, cands[ci].s); err == nil {
					swept[ci] = sol
				}
			}
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
		sweepAls = append(sweepAls, chunkAls...)
		// With a function cache behind al, fold the chunk allocators'
		// memo entries back into it (ascending chunk order, so the merge
		// is deterministic): the next checkout of this body then replays
		// the whole frontier from memory instead of re-sweeping.
		if cfg.FuncCache != nil {
			for _, cal := range chunkAls {
				if err := al.Absorb(cal); err != nil {
					return nil, err
				}
			}
		}
	}

	bestCost, bestFoot := -1, 0
	var bestSol *intra.Solution
	bestPR, bestSR := 0, 0
	for ci, sol := range swept {
		if sol == nil {
			continue
		}
		foot := nthd*cands[ci].p + (sol.Ctx.Size - min(cands[ci].p, sol.Ctx.Size))
		if bestCost < 0 || sol.Cost < bestCost || (sol.Cost == bestCost && foot < bestFoot) {
			bestCost, bestFoot = sol.Cost, foot
			bestSol, bestPR, bestSR = sol, cands[ci].p, cands[ci].s
		}
	}
	if bestSol == nil {
		return nil, infeasiblef("SRA: no feasible (PR, SR) for %d threads in %d registers", nthd, cfg.NReg)
	}

	if err := faultinject.Fire(ctx, faultinject.SiteFinalize); err != nil {
		return nil, err
	}
	funcs := make([]*ir.Func, nthd)
	keys := make([]string, nthd)
	als := make([]*intra.Allocator, nthd)
	prs := make([]int, nthd)
	srs := make([]int, nthd)
	sols := make([]*intra.Solution, nthd)
	for i := 0; i < nthd; i++ {
		funcs[i], keys[i], als[i], prs[i], srs[i], sols[i] = f, key, al, bestPR, bestSR, bestSol
	}
	alloc, err := finalize(ctx, funcs, keys, als, prs, srs, sols, cfg)
	if err != nil {
		return nil, err
	}
	for _, sal := range sweepAls {
		alloc.SolveCache.Add(sal.CacheStats())
		alloc.Phases.Add(sal.PhaseStats())
	}
	ok = true
	return alloc, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
