package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"npra/internal/bench"
	"npra/internal/chaitin"
	"npra/internal/core"
	"npra/internal/experiments"
	"npra/internal/interp"
	"npra/internal/intra"
	"npra/internal/ir"
	"npra/internal/sim"
)

// The paper-suite workload repeats passes over the paper's evaluation
// (§9) in process: the Table 3 scenarios at 128 registers, S1 squeezed
// into 56 registers so the greedy chain runs, the Table 2 minimal
// budgets and the Figure 14 zero-move SRA sweep. It calls the public
// layer functions itself, so each call carries a span, and a pass must
// reproduce experiments.Table3/Table2/Figure14 exactly.

// pressureNReg squeezes S1 below its move-free demand (the npbench
// -phases budget), so the Reduce-PR/SR chain runs.
const pressureNReg = 56

var paperScenarios = []struct {
	name     string
	benches  []string
	critical []bool
}{
	{"S1", []string{"md5", "md5", "fir2dim", "fir2dim"}, []bool{true, true, false, false}},
	{"S2", []string{"l2l3fwd_recv", "l2l3fwd_send", "md5", "md5"}, []bool{false, false, true, true}},
	{"S3", []string{"wraps_recv", "wraps_send", "fir2dim", "frag"}, []bool{true, true, false, false}},
}

// paperInputs are the generated kernels one pass runs over.
type paperInputs struct {
	scenario [][]*ir.Func // per paperScenarios entry
	names    []string     // bench.Paper() order
	kernels  []*ir.Func   // per name
}

func genPaperInputs() (*paperInputs, error) {
	in := &paperInputs{}
	for _, sc := range paperScenarios {
		var funcs []*ir.Func
		for _, n := range sc.benches {
			b, err := bench.Get(n)
			if err != nil {
				return nil, err
			}
			funcs = append(funcs, b.Gen(experiments.DefaultPackets))
		}
		in.scenario = append(in.scenario, funcs)
	}
	for _, b := range bench.Paper() {
		in.names = append(in.names, b.Name)
		in.kernels = append(in.kernels, b.Gen(experiments.DefaultPackets))
	}
	return in, nil
}

// passResult is one pass's outputs and counters.
type passResult struct {
	table3   []experiments.Table3Scenario
	table2   []experiments.Table2Row
	figure14 []experiments.Figure14Row

	pressureTrials int
	passNS         int64
	caseNS         []float64 // per case, ms
	allocNS        int64     // total core allocation time
	allocs         int
	phases         intra.PhaseStats
	solves         intra.CacheStats
	unattribNS     int64 // core allocation wall time no engine phase covers
	simInstrs      int64
	simCTX         int64
	simCycles      int64
	simIdle        int64
}

type paperRun struct {
	in  *paperInputs
	tr  *tracer
	res *passResult
	req int64 // case id for spans
}

// pass runs every case once in a seeded order.
func (p *paperRun) pass(r *rng) error {
	p.res = &passResult{
		table3:   make([]experiments.Table3Scenario, len(paperScenarios)),
		table2:   make([]experiments.Table2Row, len(p.in.names)),
		figure14: make([]experiments.Figure14Row, len(p.in.names)),
	}
	var cases []func(root int) error
	for i := range paperScenarios {
		i := i
		cases = append(cases, func(root int) error { return p.scenario(root, i) })
	}
	cases = append(cases, p.pressure)
	for i := range p.in.names {
		i := i
		cases = append(cases,
			func(root int) error { return p.table2Row(root, i) },
			func(root int) error { return p.figure14Row(root, i) })
	}
	for i := len(cases) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		cases[i], cases[j] = cases[j], cases[i]
	}
	start := now()
	for _, c := range cases {
		p.req++
		root := p.tr.begin(p.req, -1, "case")
		t := now()
		err := c(root)
		p.res.caseNS = append(p.res.caseNS, float64(time.Since(t).Nanoseconds())/1e6)
		p.tr.end(root)
		if err != nil {
			return err
		}
	}
	p.res.passNS = time.Since(start).Nanoseconds()
	return nil
}

// call runs fn inside a span named name under root.
func (p *paperRun) call(root int, name string, fn func() error) error {
	sp := p.tr.begin(p.req, root, name)
	err := fn()
	p.tr.end(sp)
	return err
}

// allocate is one cold ARA allocation, verified, with its cost counted.
func (p *paperRun) allocate(root int, funcs []*ir.Func, nreg int) (*core.Allocation, error) {
	var alloc *core.Allocation
	var err error
	t := now()
	if err := p.call(root, "core.allocate", func() error {
		alloc, err = core.AllocateARA(funcs, core.Config{NReg: nreg})
		return err
	}); err != nil {
		return nil, err
	}
	wall := time.Since(t).Nanoseconds()
	p.res.allocNS += wall
	p.res.allocs++
	p.res.phases.Add(alloc.Phases)
	p.res.solves.Add(alloc.SolveCache)
	p.res.unattribNS += wall - alloc.Phases.TotalNS()
	if alloc.Degraded {
		return nil, fmt.Errorf("allocation degraded: %v", alloc.Cause)
	}
	if err := p.call(root, "core.verify", alloc.Verify); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if err := p.call(root, "interp.equiv", func() error { return equivalentThreads(funcs, alloc) }); err != nil {
		return nil, err
	}
	return alloc, nil
}

// equivalentThreads runs each allocated thread against its original on
// the reference interpreter.
func equivalentThreads(funcs []*ir.Func, alloc *core.Allocation) error {
	for i, f := range funcs {
		if err := equivalent(f, alloc.Threads[i].F, uint32(i)); err != nil {
			return fmt.Errorf("thread %d (%s): %w", i, f.Name, err)
		}
	}
	return nil
}

func equivalent(orig, allocated *ir.Func, tid uint32) error {
	opt := interp.Options{TID: tid}
	a, err := interp.Run(orig, make([]uint32, bench.MemWords), opt)
	if err != nil {
		return fmt.Errorf("running original: %w", err)
	}
	b, err := interp.Run(allocated, make([]uint32, bench.MemWords), opt)
	if err != nil {
		return fmt.Errorf("running allocated code: %w", err)
	}
	if !a.Halted {
		return fmt.Errorf("original did not halt within the step budget")
	}
	return interp.Equivalent(a, b)
}

func (p *paperRun) simulate(root int, threads []*sim.Thread, nreg int) (*sim.Result, error) {
	var res *sim.Result
	err := p.call(root, "sim.run", func() error {
		var err error
		res, err = sim.Run(threads, sim.Config{NReg: nreg, MemWords: bench.MemWords})
		return err
	})
	if err != nil {
		return nil, err
	}
	p.res.simCycles += res.Cycles
	p.res.simIdle += res.Idle
	for _, t := range res.Threads {
		p.res.simInstrs += t.Instrs
		p.res.simCTX += t.CTX
	}
	return res, nil
}

func sharedThreads(alloc *core.Allocation) []*sim.Thread {
	var threads []*sim.Thread
	for _, t := range alloc.Threads {
		threads = append(threads, &sim.Thread{F: t.F, ProtectLo: t.PrivBase, ProtectHi: t.PrivBase + t.PR})
	}
	return threads
}

// scenario is one Table 3 row group: each thread in its fixed 32-register
// partition under Chaitin with spilling, against the balancing allocator,
// both simulated.
func (p *paperRun) scenario(root, si int) error {
	sc := paperScenarios[si]
	funcs := p.in.scenario[si]
	var base []*sim.Thread
	var baseRes []*chaitin.Result
	for i, f := range funcs {
		phys := make([]ir.Reg, experiments.BaselineRegs)
		for k := range phys {
			phys[k] = ir.Reg(i*experiments.BaselineRegs + k)
		}
		var res *chaitin.Result
		if err := p.call(root, "chaitin.alloc", func() error {
			var err error
			res, err = chaitin.Allocate(f, chaitin.Options{Phys: phys, SpillBase: bench.SpillBase, SpillStride: bench.SpillStride})
			return err
		}); err != nil {
			return fmt.Errorf("%s baseline thread %d: %w", sc.name, i, err)
		}
		base = append(base, &sim.Thread{F: res.F, ProtectLo: i * experiments.BaselineRegs, ProtectHi: (i + 1) * experiments.BaselineRegs})
		baseRes = append(baseRes, res)
	}
	baseSim, err := p.simulate(root, base, experiments.NReg)
	if err != nil {
		return fmt.Errorf("%s baseline sim: %w", sc.name, err)
	}
	alloc, err := p.allocate(root, funcs, experiments.NReg)
	if err != nil {
		return fmt.Errorf("%s: %w", sc.name, err)
	}
	shareSim, err := p.simulate(root, sharedThreads(alloc), experiments.NReg)
	if err != nil {
		return fmt.Errorf("%s sharing sim: %w", sc.name, err)
	}
	row := experiments.Table3Scenario{Name: sc.name, Benchmarks: sc.benches, Critical: sc.critical,
		SGR: alloc.SGR, TotalRegs: alloc.TotalRegisters()}
	for i := range funcs {
		spill := baseSim.Threads[i].CyclesPerIter()
		share := shareSim.Threads[i].CyclesPerIter()
		speed := 0.0
		if spill > 0 {
			speed = 100 * (spill - share) / spill
		}
		t := alloc.Threads[i]
		row.Threads = append(row.Threads, experiments.Table3Thread{
			Bench: sc.benches[i], Critical: sc.critical[i], PR: t.PR, SR: t.SR,
			LiveRanges: t.LiveRanges, Moves: t.Stats.Added(),
			CTXSpill: baseRes[i].F.Stats().CSBs, CTXSharing: t.F.Stats().CSBs,
			CyclesSpill: spill, CyclesSharing: share, SpeedupPct: speed,
		})
	}
	p.res.table3[si] = row
	return nil
}

// pressure allocates S1 into pressureNReg registers: the greedy
// reduction chain runs here.
func (p *paperRun) pressure(root int) error {
	alloc, err := p.allocate(root, p.in.scenario[0], pressureNReg)
	if err != nil {
		return fmt.Errorf("S1@%d: %w", pressureNReg, err)
	}
	if _, err := p.simulate(root, sharedThreads(alloc), pressureNReg); err != nil {
		return fmt.Errorf("S1@%d sim: %w", pressureNReg, err)
	}
	p.res.pressureTrials = alloc.Phases.Trials
	return nil
}

// newAllocator analyzes f inside a span.
func (p *paperRun) newAllocator(root int, f *ir.Func) (*intra.Allocator, error) {
	var al *intra.Allocator
	err := p.call(root, "intra.new", func() error {
		var err error
		al, err = intra.New(f)
		return err
	})
	return al, err
}

// table2Row allocates one kernel at its minimal (MinPR, MinR) budget and
// counts the moves splitting inserts.
func (p *paperRun) table2Row(root, k int) error {
	f := p.in.kernels[k]
	al, err := p.newAllocator(root, f)
	if err != nil {
		return fmt.Errorf("table2 %s: %w", f.Name, err)
	}
	bd := al.Bounds()
	var sol *intra.Solution
	if err := p.call(root, "intra.solve", func() error {
		sol, err = al.Solve(bd.MinPR, bd.MinR-bd.MinPR)
		return err
	}); err != nil {
		return fmt.Errorf("table2 %s: %w", f.Name, err)
	}
	phys := make([]ir.Reg, sol.Ctx.Size)
	for i := range phys {
		phys[i] = ir.Reg(i)
	}
	var stats intra.RewriteStats
	sp := p.tr.begin(p.req, root, "intra.rewrite")
	t := now()
	_, stats, err = intra.Rewrite(sol.Ctx, phys)
	rewriteNS := time.Since(t).Nanoseconds()
	p.tr.end(sp)
	if err != nil {
		return fmt.Errorf("table2 %s: rewrite: %w", f.Name, err)
	}
	ph := al.PhaseStats()
	ph.RewriteNS += rewriteNS
	p.res.phases.Add(ph)
	p.res.solves.Add(al.CacheStats())
	n := f.Stats().Instructions
	p.res.table2[k] = experiments.Table2Row{Name: p.in.names[k], MinPR: bd.MinPR, MinR: bd.MinR,
		Moves: stats.Added(), Instrs: n, MovePct: 100 * float64(stats.Added()) / float64(n)}
	return nil
}

// figure14Row compares a standalone Chaitin register count with the
// smallest 4*PR+SR footprint reachable without inserting a move.
func (p *paperRun) figure14Row(root, k int) error {
	f := p.in.kernels[k]
	phys := make([]ir.Reg, experiments.NReg)
	for i := range phys {
		phys[i] = ir.Reg(i)
	}
	var single *chaitin.Result
	if err := p.call(root, "chaitin.alloc", func() error {
		var err error
		single, err = chaitin.Allocate(f, chaitin.Options{Phys: phys})
		return err
	}); err != nil {
		return fmt.Errorf("figure14 %s: %w", f.Name, err)
	}
	al, err := p.newAllocator(root, f)
	if err != nil {
		return fmt.Errorf("figure14 %s: %w", f.Name, err)
	}
	var pr, sr int
	if err := p.call(root, "intra.solve", func() error {
		pr, sr, err = zeroMoveSRA(al)
		return err
	}); err != nil {
		return fmt.Errorf("figure14 %s: %w", f.Name, err)
	}
	p.res.phases.Add(al.PhaseStats())
	p.res.solves.Add(al.CacheStats())
	total := experiments.NThreads*pr + sr
	p.res.figure14[k] = experiments.Figure14Row{Name: p.in.names[k], SingleRegs: single.RegsUsed, PR: pr, SR: sr,
		Total: total, SavingPct: 100 * (1 - float64(total)/float64(experiments.NThreads*single.RegsUsed))}
	return nil
}

// zeroMoveSRA scans every PR and, per PR, the SR values down from the
// move-free demand while the cost stays zero (costs are monotone
// non-increasing in SR), keeping the smallest 4*PR+SR.
func zeroMoveSRA(al *intra.Allocator) (pr, sr int, err error) {
	b := al.Bounds()
	best := -1
	for p := b.MinPR; p <= b.MaxPR; p++ {
		lo := -1
		for s := max(b.MaxR-p, 0); s >= 0; s-- {
			sol, err := al.Solve(p, s)
			if err != nil || sol.Cost > 0 {
				break
			}
			lo = s
		}
		if lo < 0 {
			continue
		}
		if total := experiments.NThreads*p + lo; best < 0 || total < best {
			best, pr, sr = total, p, lo
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("no zero-move SRA point found")
	}
	return pr, sr, nil
}

// checkPass compares a pass with the experiments package's tables.
func checkPass(res, ref *passResult) error {
	if len(res.table3) != len(ref.table3) {
		return fmt.Errorf("table3: %d scenarios, want %d", len(res.table3), len(ref.table3))
	}
	for i, sc := range res.table3 {
		want := ref.table3[i]
		if sc.Name != want.Name || sc.SGR != want.SGR || sc.TotalRegs != want.TotalRegs ||
			!reflect.DeepEqual(sc.Benchmarks, want.Benchmarks) || !reflect.DeepEqual(sc.Critical, want.Critical) ||
			!reflect.DeepEqual(sc.Threads, want.Threads) {
			return fmt.Errorf("table3 %s differs from experiments.Table3:\n got %+v\nwant %+v", sc.Name, sc, want)
		}
	}
	if !reflect.DeepEqual(res.table2, ref.table2) {
		return fmt.Errorf("table2 differs from experiments.Table2:\n got %+v\nwant %+v", res.table2, ref.table2)
	}
	if !reflect.DeepEqual(res.figure14, ref.figure14) {
		return fmt.Errorf("figure14 differs from experiments.Figure14:\n got %+v\nwant %+v", res.figure14, ref.figure14)
	}
	if res.pressureTrials <= 0 {
		return fmt.Errorf("S1@%d ran no reduction trials: the greedy chain was not exercised", pressureNReg)
	}
	return nil
}

// paperRef is the experiments package's own run of the three tables.
func paperRef() (*passResult, error) {
	t3, err := experiments.Table3(experiments.DefaultPackets)
	if err != nil {
		return nil, err
	}
	t2, err := experiments.Table2(experiments.DefaultPackets)
	if err != nil {
		return nil, err
	}
	f14, err := experiments.Figure14(experiments.DefaultPackets)
	if err != nil {
		return nil, err
	}
	return &passResult{table3: t3, table2: t2, figure14: f14}, nil
}

// quality sets the paper's own figures from a checked pass.
func quality(o *outcome, res *passResult) {
	var crit, noncrit []float64
	for _, sc := range res.table3 {
		for _, t := range sc.Threads {
			if t.Critical {
				crit = append(crit, t.CyclesSharing)
			} else {
				noncrit = append(noncrit, t.CyclesSharing)
			}
		}
	}
	moves := 0
	for _, r := range res.table2 {
		moves += r.Moves
	}
	o.metrics["crit_cycles_per_pkt"] = geomean(crit)
	o.metrics["noncrit_cycles_per_pkt"] = geomean(noncrit)
	o.metrics["moves_inserted"] = float64(moves)
	o.metrics["sra_saving_pct"] = experiments.AverageSaving(res.figure14)
}

const (
	// servingPasses is how many checked paper passes a serving workload
	// runs after its timed phase.
	servingPasses = 10
	// paperSetupReps is how often paper-suite generates its kernels.
	paperSetupReps = 101
)

// paperPasses runs checked, untraced passes: the serving workloads take
// the paper's quality figures and suite_s (the median pass) from them.
func paperPasses(o *outcome, seed int64, host *speed) error {
	in, err := genPaperInputs()
	if err != nil {
		return err
	}
	ref, err := paperRef()
	if err != nil {
		return err
	}
	p := &paperRun{in: in}
	r := newRNG(seed, 7)
	var passS []float64
	for i := 0; i < servingPasses; i++ {
		host.sample(1)
		o.attempted++
		if err := p.pass(r); err != nil {
			o.miss("paper pass: %v", err)
			return nil
		}
		if err := checkPass(p.res, ref); err != nil {
			o.miss("paper pass: %v", err)
		}
		passS = append(passS, float64(p.res.passNS)/1e9)
	}
	quality(o, p.res)
	o.metrics["suite_s"] = median(passS)
	o.samples["suite_s"] = len(passS)
	return nil
}

func runPaper(opt options) (*outcome, error) {
	o := newOutcome()
	var host speed
	// Set-up is kernel generation, under a millisecond; it is repeated,
	// between calibration samples, and the median kept.
	var setups []float64
	var in *paperInputs
	for i := 0; i < paperSetupReps; i++ {
		if i%25 == 0 {
			host.sample(1)
		}
		t := now()
		var err error
		if in, err = genPaperInputs(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	o.metrics["setup_s"] = median(setups)
	o.samples["setup_s"] = len(setups)

	ref, err := paperRef()
	if err != nil {
		return nil, fmt.Errorf("experiments reference: %w", err)
	}

	var passes []*passResult
	var traced, untraced []float64
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	p := &paperRun{in: in}
	r := newRNG(opt.seed, 1)
	deadline := now().Add(time.Duration(opt.seconds) * time.Second)
	for n := 0; n < 2 || now().Before(deadline); n++ {
		if n%2 == 0 {
			host.sample(1)
		}
		// The traced run alternates untraced and traced passes, so their
		// difference is the tracing overhead.
		p.tr = nil
		if opt.trace && n%2 == 1 {
			p.tr = tr
		}
		o.attempted += len(paperScenarios) + 1 + 2*len(in.names)
		if err := p.pass(r); err != nil {
			o.miss("pass %d: %v", n, err)
			break
		}
		if err := checkPass(p.res, ref); err != nil {
			o.miss("pass %d: %v", n, err)
		}
		passes = append(passes, p.res)
		if p.tr != nil {
			traced = append(traced, float64(p.res.passNS))
		} else {
			untraced = append(untraced, float64(p.res.passNS))
		}
	}
	if len(passes) == 0 {
		return o, nil
	}
	if opt.trace {
		// The allocation requests of one pass: S1-S3, then S1 again under
		// pressure.
		reqs := append(append([][]*ir.Func{}, in.scenario...), in.scenario[0])
		paperLayers(o, passes, tr, median(traced)/median(untraced)-1, reqs)
		if opt.out != "" {
			if err := tr.write(filepath.Join(opt.out, fmt.Sprintf("paper-suite-seed%d-spans.jsonl", opt.seed))); err != nil {
				return nil, err
			}
		}
		return o, nil
	}

	var lat, passS, allocMS []float64
	cases := 0
	var wall float64
	for _, pr := range passes {
		lat = append(lat, pr.caseNS...)
		cases += len(pr.caseNS)
		wall += float64(pr.passNS) / 1e9
		passS = append(passS, float64(pr.passNS)/1e9)
		allocMS = append(allocMS, float64(pr.allocNS)/1e6/float64(pr.allocs))
	}
	o.metrics["throughput_rps"] = float64(cases) / wall
	o.metrics["latency_p50_ms"] = median(lat)
	o.metrics["latency_p99_ms"] = quantile(lat, 0.99)
	o.samples["latency_p50_ms"] = len(lat)
	o.samples["latency_p99_ms"] = len(lat)
	// One pass holds four allocations of different sizes; the per-pass
	// mean keeps the median off the gaps between them.
	o.metrics["alloc_ms_p50"] = median(allocMS)
	o.samples["alloc_ms_p50"] = len(allocMS)
	o.metrics["suite_s"] = median(passS)
	o.samples["suite_s"] = len(passS)
	o.metrics["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
	quality(o, passes[0])
	rss, err := peakRSSMB(fmt.Sprint(os.Getpid()))
	if err != nil {
		return nil, err
	}
	o.metrics["peak_rss_mb"] = rss
	host.scale(o, "inproc", []string{"setup_s", "latency_p50_ms", "latency_p99_ms", "alloc_ms_p50", "suite_s"}, []string{"throughput_rps"})
	o.notes["passes"] = len(passes)
	o.notes["pressure_trials"] = passes[0].pressureTrials
	return o, nil
}

// paperLayers sets the per-layer metrics of the traced paper-suite run,
// per case, from the traced passes' spans and engine counters.
func paperLayers(o *outcome, passes []*passResult, tr *tracer, overhead float64, formatInputs [][]*ir.Func) {
	total, tracedCases, rootNS, selfNS := tr.summary("case")
	var ph intra.PhaseStats
	var sc intra.CacheStats
	var cases, unattrib int64
	for _, pr := range passes {
		cases += int64(len(pr.caseNS))
		ph.Add(pr.phases)
		sc.Add(pr.solves)
		unattrib += pr.unattribNS
	}
	n := float64(cases)
	perCaseMS := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	for _, s := range perLayer {
		o.metrics[s.name] = 0
	}
	spanMS := func(name string) float64 { return float64(total[name]) / 1e6 / float64(tracedCases) }
	o.metrics["core.allocate_ms"] = spanMS("core.allocate")
	o.metrics["core.verify_ms"] = spanMS("core.verify")
	o.metrics["sim.run_ms"] = spanMS("sim.run")
	o.metrics["chaitin.alloc_ms"] = spanMS("chaitin.alloc")
	o.metrics["interp.equiv_ms"] = spanMS("interp.equiv")
	o.metrics["core.unattributed_ms"] = perCaseMS(unattrib)
	o.metrics["ig.build_ms"] = perCaseMS(ph.BuildNS)
	o.metrics["estimate.merge_ms"] = perCaseMS(ph.MergeNS)
	o.metrics["estimate.repair_ms"] = perCaseMS(ph.RepairNS)
	o.metrics["intra.chain_coloring_ms"] = perCaseMS(ph.ColorNS)
	o.metrics["intra.rewrite_ms"] = perCaseMS(ph.RewriteNS)
	o.metrics["funccache.rewrite_cached_ms"] = perCaseMS(ph.RewriteCachedNS)
	o.metrics["intra.trials_per_req"] = float64(ph.Trials) / n
	o.metrics["intra.chain_steps_per_req"] = float64(ph.ChainSteps) / n
	o.metrics["intra.solve_hit_rate"] = sc.HitRate()
	o.metrics["ir.format_us"] = formatUS(formatInputs)
	last := passes[len(passes)-1] // the simulator counts are the same every pass
	o.metrics["sim.instrs"] = float64(last.simInstrs)
	o.metrics["sim.ctx_switches"] = float64(last.simCTX)
	o.metrics["sim.idle_share"] = ratio(float64(last.simIdle), float64(last.simCycles))
	o.metrics["bench.unattributed_share"] = ratio(float64(selfNS), float64(rootNS))
	o.metrics["bench.trace_overhead_share"] = overhead
	o.samples["traced_cases"] = tracedCases
}

// formatUS is the time to print the bodies of the given allocation
// requests once each, as core's thread-grouping loop does on every call:
// the mean over requests of the median of five repetitions, in µs.
func formatUS(reqs [][]*ir.Func) float64 {
	var per []float64
	for _, funcs := range reqs {
		var xs []float64
		for i := 0; i < 5; i++ {
			t := now()
			for _, f := range funcs {
				_ = f.Format()
			}
			xs = append(xs, float64(time.Since(t).Nanoseconds())/1e3)
		}
		per = append(per, median(xs))
	}
	return mean(per)
}
