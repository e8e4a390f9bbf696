// Command npbench regenerates the paper's evaluation: every table and
// figure of §9 plus the ablations DESIGN.md calls out.
//
// Usage:
//
//	npbench -all                 # everything
//	npbench -table 1             # Table 1 (benchmark properties)
//	npbench -table 2             # Table 2 (move overhead at minimal regs)
//	npbench -table 3             # Table 3 (ARA scenarios, spill vs share)
//	npbench -figure 14           # Figure 14 (SRA register savings)
//	npbench -ablations           # ablation studies
//	npbench -list                # list the built-in benchmarks
//	npbench -all -j 1            # serial run (output identical to -j N)
//	npbench -phases              # per-phase allocation timing breakdown
//	npbench -phases -funccache   # same allocation cold then warm through
//	                             # the function cache, with the warm speedup
//	npbench -all -cpuprofile cpu.pb.gz   # profile any run with pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"

	"npra/internal/bench"
	"npra/internal/core"
	"npra/internal/experiments"
	"npra/internal/funccache"
	"npra/internal/ir"
)

func main() {
	var (
		table      = flag.Int("table", 0, "regenerate table 1, 2 or 3")
		figure     = flag.Int("figure", 0, "regenerate figure 14")
		ablations  = flag.Bool("ablations", false, "run the ablation studies")
		scaling    = flag.Bool("scaling", false, "run the chip-scaling study (multi-PU, shared memory)")
		all        = flag.Bool("all", false, "run everything")
		list       = flag.Bool("list", false, "list built-in benchmarks")
		phases     = flag.Bool("phases", false, "run a pressured ARA allocation and print the per-phase timing breakdown")
		funccacheP = flag.Bool("funccache", false, "with -phases: run the allocation twice through a function cache (cold, then warm) and report the warm speedup")
		rewrites   = flag.Bool("rewritecache", true, "with -phases -funccache: also serve the rewrite phase from the function cache (false rewrites every thread afresh)")
		maxRWShare = flag.Float64("max-warm-rewrite-share", 0, "with -phases -funccache: fail unless the warm run's rewrite+rewrite_cached share of wall-clock stays at or below this fraction (0 disables the gate)")
		packets    = flag.Int("packets", experiments.DefaultPackets, "packets per thread")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for experiment fan-out (1 = serial; results are identical for any value)")
		timeout    = flag.Duration("timeout", 0, "per-allocation deadline (0 = none); expired allocations abort the experiment rather than report fallback numbers")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()
	experiments.SetWorkers(*jobs)
	experiments.SetTimeout(*timeout)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "npbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "npbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "npbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "npbench:", err)
			os.Exit(1)
		}
		defer rtrace.Stop()
	}

	err := run(*table, *figure, *ablations, *scaling, *all, *list, *phases, *funccacheP, *packets, *rewrites, *maxRWShare)

	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "npbench:", ferr)
		} else {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintln(os.Stderr, "npbench:", werr)
			}
			f.Close()
		}
	}
	if err != nil {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		if *traceFile != "" {
			rtrace.Stop()
		}
		fmt.Fprintln(os.Stderr, "npbench:", err)
		os.Exit(1)
	}
}

func run(table, figure int, ablations, scaling, all, list, phases, funccacheP bool, packets int, rewrites bool, maxRWShare float64) error {
	if list {
		fmt.Println("built-in benchmarks:")
		for _, b := range bench.All() {
			fmt.Printf("  %-14s [%-9s] %s\n", b.Name, b.Suite, b.Description)
		}
		return nil
	}
	if phases {
		return runPhases(packets, funccacheP, rewrites, maxRWShare)
	}
	ran := false
	if all || table == 1 {
		rows, err := experiments.Table1(packets)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable1(rows))
		ran = true
	}
	if all || figure == 14 {
		rows, err := experiments.Figure14(packets)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure14(rows))
		ran = true
	}
	if all || table == 2 {
		rows, err := experiments.Table2(packets)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable2(rows))
		ran = true
	}
	if all || table == 3 {
		scs, err := experiments.Table3(packets)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable3(scs))
		ran = true
	}
	if all || ablations {
		text, err := experiments.FormatAblations(packets)
		if err != nil {
			return err
		}
		fmt.Println(text)
		ran = true
	}
	if all || scaling {
		free, err := experiments.ClusterScaling(packets, 0)
		if err != nil {
			return err
		}
		contended, err := experiments.ClusterScaling(packets, 2)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatScaling(free, contended, 2))
		ran = true
	}
	if !ran {
		return fmt.Errorf("nothing to do: pass -all, -table N, -figure 14, -ablations, -scaling, -phases or -list")
	}
	return nil
}

// runPhases performs one pressured ARA allocation (the BenchmarkAllocateARA
// workload: two md5 threads plus two fir2dim threads squeezed into 56
// registers) and prints where the wall-clock time went, phase by phase.
// With warm set it runs the allocation twice through one function cache
// — cold, then warm — printing both breakdowns and the warm speedup;
// rewrites also serves the rewrite phase from that cache. A non-zero
// maxRWShare gates the warm run: its rewrite+rewrite_cached share of
// wall-clock must stay at or below that fraction.
func runPhases(packets int, warm, rewrites bool, maxRWShare float64) error {
	var funcs []*ir.Func
	for _, n := range []string{"md5", "md5", "fir2dim", "fir2dim"} {
		b, err := bench.Get(n)
		if err != nil {
			return err
		}
		funcs = append(funcs, b.Gen(packets))
	}
	const pressureNReg = 56 // forces greedy reduction rounds
	cfg := core.Config{NReg: pressureNReg}
	var cache *funccache.Cache
	if warm {
		cache = funccache.New(funccache.Config{})
		cfg.FuncCache = cache
		if rewrites {
			cfg.RewriteCache = cache
		}
	}
	runOnce := func(label string) (*core.Allocation, time.Duration, error) {
		start := time.Now()
		alloc, err := core.AllocateARA(funcs, cfg)
		total := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		ph := alloc.Phases
		fmt.Printf("phase breakdown%s: 2x md5 + 2x fir2dim, %d packets, NReg=%d\n\n", label, packets, pressureNReg)
		row := func(name string, ns int64) {
			fmt.Printf("  %-22s %12s  %5.1f%%\n", name, time.Duration(ns), 100*float64(ns)/float64(total.Nanoseconds()))
		}
		row("analysis (build)", ph.BuildNS)
		row("estimate: merge", ph.MergeNS)
		row("estimate: repair", ph.RepairNS)
		row("chain coloring", ph.ColorNS)
		row("rewrite", ph.RewriteNS)
		row("rewrite (cached)", ph.RewriteCachedNS)
		row("other (greedy loop &c)", total.Nanoseconds()-ph.TotalNS())
		fmt.Printf("  %-22s %12s\n\n", "total", total)
		fmt.Printf("  chain steps: %d   candidate trials: %d   solve-cache hit rate: %.1f%%\n",
			ph.ChainSteps, ph.Trials, 100*alloc.SolveCache.HitRate())
		return alloc, total, nil
	}
	cold, coldNS, err := runOnce(mapLabel(warm, " (cold)"))
	if err != nil {
		return err
	}
	if !warm {
		return nil
	}
	fmt.Println()
	hot, warmNS, err := runOnce(" (warm)")
	if err != nil {
		return err
	}
	for i, t := range hot.Threads {
		if t.F.Format() != cold.Threads[i].F.Format() {
			return fmt.Errorf("warm thread %d rewrite differs from cold", i)
		}
	}
	st := cache.Stats()
	fmt.Printf("\n  func cache: %d hits, %d misses, %d entries\n", st.Hits, st.Misses, st.Entries)
	if rewrites {
		fmt.Printf("  rewrite cache: %d hits, %d reloc hits, %d misses, %d entries\n",
			st.RewriteHits, st.RewriteRelocHits, st.RewriteMisses, st.RewriteEntries)
	}
	fmt.Printf("  warm speedup: %.1fx (%s -> %s), rewrites bit-identical\n",
		float64(coldNS)/float64(warmNS), coldNS.Round(time.Microsecond), warmNS.Round(time.Microsecond))
	if maxRWShare > 0 {
		share := float64(hot.Phases.RewriteNS+hot.Phases.RewriteCachedNS) / float64(warmNS.Nanoseconds())
		if share > maxRWShare {
			return fmt.Errorf("warm rewrite share %.1f%% exceeds -max-warm-rewrite-share %.1f%%",
				100*share, 100*maxRWShare)
		}
		fmt.Printf("  warm rewrite share: %.1f%% (gate: <= %.1f%%)\n", 100*share, 100*maxRWShare)
	}
	return nil
}

func mapLabel(cond bool, s string) string {
	if cond {
		return s
	}
	return ""
}
