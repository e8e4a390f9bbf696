package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"npra/internal/core"
	"npra/internal/funccache"
	"npra/internal/ir"
	"npra/internal/serve"
)

const (
	// setupReps is how often a run starts and warms a server; setup_s
	// is the median, and the last server is the one measured.
	setupReps = 7
	// dumpChecks is how many timed requests are re-requested with dump
	// and checked against a direct allocation and the interpreter.
	dumpChecks = 8
	// coldAllocs timed requests are allocated again in process,
	// uncached, in batches of coldBatch with a calibration sample before
	// each: alloc_ms_p50 is the median over batches of the mean
	// allocation. A plain median of single allocations sits where 2-thread
	// requests end and 3-thread ones begin on mix-warm, and jumped ±15%
	// with the sample.
	coldAllocs = 1000
	coldBatch  = 50
)

func runServing(opt options) (*outcome, error) {
	if opt.npserve == "" {
		return nil, fmt.Errorf("-npserve is required for %s", opt.workload)
	}
	st, err := newStream(opt.workload, opt.seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var host speed
	host.sample(4)
	var srv *server
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if srv != nil {
			srv.stop()
		}
		t := now()
		if srv, err = startServer(opt.npserve); err != nil {
			return nil, err
		}
		for i := -st.warm; i < 0; i++ {
			if _, _, err := srv.post(st.body(i, false)); err != nil {
				o.problem("warm-up request %d: %v", i, err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer srv.stop()
	o.metrics["setup_s"] = median(setups)
	o.samples["setup_s"] = len(setups)

	host.sample(4)
	before, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	// The timed phase runs in one-second segments with calibration
	// samples between them, so the samples see the same host the load did.
	var results []result
	var segs []segment
	for seg := 0; seg < opt.seconds; seg++ {
		t := now()
		rs := srv.closedLoop(context.Background(), st, int64(len(results)), time.Second)
		segs = append(segs, segment{first: len(results), n: len(rs), seconds: time.Since(t).Seconds()})
		results = append(results, rs...)
		host.sample(2)
	}
	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	host.sample(4)
	delta := func(name string) float64 { return after[name] - before[name] }
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}

	o.attempted = len(results)
	ok := make([]bool, len(results))
	for i, r := range results {
		if err := checkInline(st, r); err != nil {
			o.miss("request %d: %v", r.idx, err)
			continue
		}
		ok[i] = true
	}
	preconditions(o, st, delta, len(results))
	// The in-process measurements after the load have their own
	// calibration samples, taken between them.
	var inproc speed
	checkSample(o, srv, st, results, opt.seed, &inproc)

	if opt.trace {
		servingLayers(o, results, delta, after)
		if err := replayLayers(o, st, int64(len(results)), opt); err != nil {
			return nil, err
		}
		return o, nil
	}
	loadMetrics(o, results, ok, segs)
	o.metrics["peak_rss_mb"] = rss
	if err := paperPasses(o, opt.seed, &inproc); err != nil {
		return nil, err
	}
	o.metrics["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
	host.scale(o, "load", []string{"setup_s", "latency_p50_ms", "latency_p99_ms"}, []string{"throughput_rps"})
	inproc.scale(o, "inproc", []string{"alloc_ms_p50", "suite_s"}, nil)
	o.notes["requests"] = len(results)
	o.notes["trials"] = delta("npserve_engine_trials")
	return o, nil
}

// segment is one second of the timed closed loop: results[first:first+n].
type segment struct {
	first, n int
	seconds  float64
}

// loadMetrics sets throughput and latency from the correct replies.
// Host stalls on the shared VM come in bursts that hit some seconds and
// spare others, and they set a whole run's p99 and rate more than npra
// does. So the rate is the upper quartile of the one-second rates, and
// the p99 the lower quartile of the p99s of p99Window-second windows
// (well over a thousand replies each, so at least ten lie beyond it):
// the quieter part of the run. The median is over the whole run. The
// whole-run rate and p99 are in the record. A stall npra itself caused
// in only some seconds would be missed by these two.
func loadMetrics(o *outcome, results []result, ok []bool, segs []segment) {
	const p99Window = 4
	okLatencies := func(from, to int) []float64 {
		var lat []float64
		for i := from; i < to; i++ {
			if ok[i] {
				lat = append(lat, results[i].latencyMS)
			}
		}
		return lat
	}
	var rates, p99s []float64
	for _, s := range segs {
		rates = append(rates, float64(len(okLatencies(s.first, s.first+s.n)))/s.seconds)
	}
	minWindow := len(results)
	for k := 0; k+p99Window <= len(segs); k += p99Window {
		last := segs[k+p99Window-1]
		w := okLatencies(segs[k].first, last.first+last.n)
		p99s = append(p99s, quantile(w, 0.99))
		minWindow = min(minWindow, len(w))
	}
	all := okLatencies(0, len(results))
	var seconds float64
	for _, s := range segs {
		seconds += s.seconds
	}
	o.notes["whole_run"] = map[string]float64{
		"throughput_rps": float64(len(all)) / seconds,
		"latency_p99_ms": quantile(append([]float64(nil), all...), 0.99),
	}
	o.metrics["throughput_rps"] = quantile(rates, 0.75)
	o.samples["throughput_rps"] = len(rates)
	o.metrics["latency_p50_ms"] = median(all)
	o.samples["latency_p50_ms"] = len(all)
	if len(p99s) == 0 { // a run shorter than one window
		p99s = append(p99s, quantile(all, 0.99))
		minWindow = len(all)
	}
	o.metrics["latency_p99_ms"] = quantile(p99s, 0.25)
	o.samples["latency_p99_ms"] = minWindow
	o.samples["latency_p99_windows"] = len(p99s)
}

// checkInline checks one timed reply: a 200 with one grant per thread
// that fits the register file and is not the degraded fallback.
func checkInline(st *stream, r result) error {
	if r.err != nil {
		return r.err
	}
	s := st.spec(r.idx)
	resp := r.resp
	if len(resp.Threads) != len(s.threads) {
		return fmt.Errorf("%d grants for %d threads", len(resp.Threads), len(s.threads))
	}
	if resp.Degraded {
		return fmt.Errorf("degraded: %s", resp.Cause)
	}
	total := resp.SGR
	for _, t := range resp.Threads {
		total += t.PR
	}
	if total > s.nreg || resp.NReg != s.nreg {
		return fmt.Errorf("sum(PR)+SGR = %d with nreg %d (requested %d)", total, resp.NReg, s.nreg)
	}
	return nil
}

// preconditions fail the run when the workload stopped exercising the
// layers it was chosen for.
func preconditions(o *outcome, st *stream, delta func(string) float64, n int) {
	st.mu.Lock()
	timed, allSeen, reused := st.timed, st.allSeen, st.reused
	st.mu.Unlock()
	switch st.workload {
	case "mix-warm":
		share := ratio(float64(allSeen), float64(timed))
		o.notes["bodies_seen_share"] = share
		if share < 0.99 {
			o.problem("precondition: only %.4f of timed requests carry bodies seen before (want ≥ 0.99)", share)
		}
	case "pressure-cold":
		o.notes["bodies_reused"] = reused
		if reused != 0 {
			o.problem("precondition: %d timed bodies were seen before (want 0)", reused)
		}
		if trials := delta("npserve_engine_trials"); n > 0 && trials <= 0 {
			o.problem("precondition: the engine ran no reduction trials (want intra.trials_per_req > 0)")
		}
	}
}

// checkSample re-requests a seeded sample of the timed requests with
// dump set and checks each against a direct, uncached allocation in this
// process (equal grants) and the interpreter (each dumped thread
// behaves as its original body). The direct allocations of a larger
// sample give alloc_ms_p50.
func checkSample(o *outcome, srv *server, st *stream, results []result, seed int64, host *speed) {
	if len(results) == 0 {
		return
	}
	r := newRNG(seed, 99)
	var batchMS []float64 // mean allocation per batch
	var equivMS []float64
	for k := 0; k < coldAllocs; k++ {
		if k%coldBatch == 0 {
			host.sample(1)
			batchMS = append(batchMS, 0)
		}
		idx := results[r.intn(len(results))].idx
		req := st.wire(idx)
		funcs, err := req.Funcs()
		if err != nil {
			o.problem("sample %d: materialize: %v", idx, err)
			continue
		}
		t := now()
		want, err := core.AllocateARA(funcs, core.Config{NReg: req.NReg})
		batchMS[len(batchMS)-1] += float64(time.Since(t).Nanoseconds()) / 1e6 / coldBatch
		if err != nil {
			o.problem("sample %d: direct allocation: %v", idx, err)
			continue
		}
		if k >= dumpChecks {
			continue
		}
		o.attempted++
		_, resp, err := srv.post(st.body(idx, true))
		if err != nil {
			o.miss("sample %d: dump request: %v", idx, err)
			continue
		}
		t = now()
		err = checkDump(funcs, resp, want)
		equivMS = append(equivMS, float64(time.Since(t).Nanoseconds())/1e6)
		if err != nil {
			o.miss("sample %d: %v", idx, err)
		}
	}
	o.metrics["alloc_ms_p50"] = median(batchMS)
	o.samples["alloc_ms_p50"] = len(batchMS)
	o.metrics["interp.equiv_ms"] = mean(equivMS)
}

// checkDump requires a served allocation to grant exactly what a direct
// uncached allocation grants, and each dumped thread to be observably
// equivalent to its original body on the reference interpreter.
func checkDump(funcs []*ir.Func, resp *serve.Response, want *core.Allocation) error {
	if resp.SGR != want.SGR || len(resp.Threads) != len(want.Threads) {
		return fmt.Errorf("served sgr %d over %d threads, direct sgr %d over %d",
			resp.SGR, len(resp.Threads), want.SGR, len(want.Threads))
	}
	for i, t := range resp.Threads {
		w := want.Threads[i]
		if t.PR != w.PR || t.SR != w.SR || t.PrivBase != w.PrivBase {
			return fmt.Errorf("thread %d: served (pr %d, sr %d, base %d), direct (pr %d, sr %d, base %d)",
				i, t.PR, t.SR, t.PrivBase, w.PR, w.SR, w.PrivBase)
		}
		f, err := ir.Parse(t.Asm)
		if err != nil {
			return fmt.Errorf("thread %d: dumped asm does not parse: %v", i, err)
		}
		if err := equivalent(funcs[i], f, uint32(i)); err != nil {
			return fmt.Errorf("thread %d: dumped asm is not equivalent to the original: %v", i, err)
		}
	}
	return nil
}

// servingLayers sets the per-layer metrics the server itself reports:
// /metrics deltas over the timed run, and the replies' own timings.
func servingLayers(o *outcome, results []result, delta func(string) float64, after map[string]float64) {
	for _, s := range perLayer {
		if _, ok := o.metrics[s.name]; !ok {
			o.metrics[s.name] = 0
		}
	}
	var transport, handler []float64
	for _, r := range results {
		if r.resp == nil {
			continue
		}
		handler = append(handler, r.resp.ElapsedMS)
		transport = append(transport, r.latencyMS-r.resp.ElapsedMS)
	}
	n := float64(len(results))
	hitRate := func(hits, misses float64) float64 { return ratio(hits, hits+misses) }
	o.metrics["serve.transport_ms_p50"] = median(transport)
	o.metrics["serve.handler_ms_p50"] = median(handler)
	o.samples["serve.transport_ms_p50"] = len(transport)
	o.samples["serve.handler_ms_p50"] = len(handler)
	o.metrics["serve.raw_cache_hit_rate"] = hitRate(delta("npserve_raw_cache_hits"), delta("npserve_raw_cache_misses"))
	o.metrics["serve.singleflight_hit_rate"] = hitRate(delta("npserve_singleflight_hits"), delta("npserve_singleflight_misses"))
	o.metrics["serve.batch_size_mean"] = ratio(delta("npserve_batched_requests_total"), delta("npserve_engine_invocations_total"))
	o.metrics["funccache.func_hit_rate"] = hitRate(delta("npserve_func_cache_hits"), delta("npserve_func_cache_misses"))
	o.metrics["funccache.body_hit_rate"] = hitRate(delta("npserve_body_cache_hits"), delta("npserve_body_cache_misses"))
	rwHits := delta("npserve_rewrite_cache_hits") + delta("npserve_rewrite_cache_reloc_hits")
	o.metrics["funccache.rewrite_hit_rate"] = hitRate(rwHits, delta("npserve_rewrite_cache_misses"))
	o.metrics["funccache.rewrite_reloc_share"] = ratio(delta("npserve_rewrite_cache_reloc_hits"), rwHits)
	o.metrics["funccache.evictions_per_req"] = ratio(delta("npserve_func_cache_evictions")+
		delta("npserve_rewrite_cache_evictions")+delta("npserve_body_cache_evictions"), n)
	o.metrics["funccache.bytes"] = (after["npserve_func_cache_bytes"] + after["npserve_rewrite_cache_bytes"]) / (1 << 20)
	phaseMS := func(phase string) float64 {
		return ratio(delta(`npserve_engine_phase_ns{phase="`+phase+`"}`), n) / 1e6
	}
	o.metrics["ig.build_ms"] = phaseMS("build")
	o.metrics["estimate.merge_ms"] = phaseMS("estimate_merge")
	o.metrics["estimate.repair_ms"] = phaseMS("estimate_repair")
	o.metrics["intra.chain_coloring_ms"] = phaseMS("chain_coloring")
	o.metrics["intra.rewrite_ms"] = phaseMS("rewrite")
	o.metrics["funccache.rewrite_cached_ms"] = phaseMS("rewrite_cached")
	o.metrics["intra.trials_per_req"] = ratio(delta("npserve_engine_trials"), n)
	o.metrics["intra.chain_steps_per_req"] = ratio(delta("npserve_engine_chain_steps"), n)
	o.metrics["intra.solve_hit_rate"] = hitRate(delta("npserve_solve_cache_hits"), delta("npserve_solve_cache_misses"))
}

// replayLayers replays the seeded stream in process through the public
// functions npserve calls, in its order, with fresh caches sized as
// npserve's defaults: once untraced and once traced over the same
// elements, so the difference is the tracing overhead. The replay takes
// the path of a request that misses the request-level tiers (raw LRU,
// singleflight), which the server-side metrics above cover.
func replayLayers(o *outcome, st *stream, served int64, opt options) error {
	budget := time.Duration(opt.seconds) * time.Second / 4
	untraced, err := replay(st, nil, served, budget)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := replay(st, tr, untraced.n, time.Hour)
	if err != nil {
		return err
	}
	total, _, rootNS, selfNS := tr.summary("request")
	n := float64(traced.n)
	per := func(name string) float64 { return float64(total[name]) / n }
	o.metrics["core.decode_us"] = per("json.decode") / 1e3
	o.metrics["core.funcs_cached_us"] = per("core.funcs_cached") / 1e3
	o.metrics["core.canonical_key_us"] = per("core.canonical_key") / 1e3
	o.metrics["core.allocate_ms"] = per("core.allocate") / 1e6
	o.metrics["core.verify_ms"] = per("core.verify") / 1e6
	o.metrics["core.wire_encode_us"] = per("core.wire_encode") / 1e3
	o.metrics["core.unattributed_ms"] = float64(traced.unattribNS) / n / 1e6
	o.metrics["ir.format_us"] = traced.formatUS
	o.metrics["bench.unattributed_share"] = ratio(float64(selfNS), float64(rootNS))
	o.metrics["bench.trace_overhead_share"] = traced.wall.Seconds()/untraced.wall.Seconds() - 1
	o.samples["replayed_requests"] = int(traced.n)
	if opt.out != "" {
		return tr.write(filepath.Join(opt.out, fmt.Sprintf("%s-seed%d-spans.jsonl", opt.workload, opt.seed)))
	}
	return nil
}

// replayed is what one replay measured.
type replayed struct {
	wall       time.Duration // the timed elements
	n          int64         // timed elements run
	unattribNS int64         // allocation wall time no engine phase covers
	formatUS   float64       // mean time to print one request's bodies
}

// replay runs the warm-up and then timed elements 0..limit-1 of the
// stream, stopping early once budget is spent.
func replay(st *stream, tr *tracer, limit int64, budget time.Duration) (*replayed, error) {
	fc := funccache.New(funccache.Config{})
	bodies := funccache.NewBodyCache(1024)
	rewrites := funccache.NewRewriteCache(funccache.RewriteConfig{KeyFn: fc.FuncKey})
	ctx := context.Background()
	out := &replayed{}
	one := func(i int64, tr *tracer) error {
		raw := encode(st.spec(i), false)
		root := tr.begin(i, -1, "request")
		defer tr.end(root)
		sp := tr.begin(i, root, "json.decode")
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		req := new(core.WireRequest)
		err := dec.Decode(req)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(i, root, "core.funcs_cached")
		funcs, err := req.FuncsCached(bodies)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(i, root, "core.canonical_key")
		_ = req.CanonicalKeyBy(funcs, fc.FuncKey)
		tr.end(sp)
		sp = tr.begin(i, root, "core.allocate")
		alloc, err := core.AllocateARACtx(ctx, funcs, core.Config{NReg: req.NReg, FuncCache: fc, RewriteCache: rewrites})
		tr.end(sp)
		if err != nil {
			return err
		}
		if tr != nil {
			// Where the grouping loop's Format calls show.
			out.unattribNS += tr.spans[sp].End - tr.spans[sp].Start - alloc.Phases.TotalNS()
		}
		sp = tr.begin(i, root, "core.verify")
		err = alloc.Verify()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		sp = tr.begin(i, root, "core.wire_encode")
		_, err = json.Marshal(&serve.Response{WireResponse: *alloc.Wire(req.Dump)})
		tr.end(sp)
		return err
	}
	for i := -st.warm; i < 0; i++ {
		if err := one(i, nil); err != nil {
			return nil, fmt.Errorf("replay warm-up %d: %w", i, err)
		}
	}
	start := now()
	for ; out.n < limit && time.Since(start) < budget; out.n++ {
		if err := one(out.n, tr); err != nil {
			return nil, fmt.Errorf("replay %d: %w", out.n, err)
		}
	}
	out.wall = time.Since(start)
	if tr != nil {
		// Printing each request's bodies once, as core's grouping loop
		// does on every call, measured apart from the replay.
		var reqs [][]*ir.Func
		for i := int64(0); i < out.n && i < 200; i++ {
			funcs, err := st.wire(i).FuncsCached(bodies)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, funcs)
		}
		out.formatUS = formatUS(reqs)
	}
	return out, nil
}
