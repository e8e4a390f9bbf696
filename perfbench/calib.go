package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host is a shared virtual machine: neighbours steal CPU and contend
// for caches and memory, and over minutes that moves every timing by 20%
// or more, far beyond what a change to npra moves. Each run therefore
// also times a fixed loop that uses no npra code but does what npra's
// hot paths do (hash maps, sorting, allocation, formatting), interleaved
// with the measured work, and reports its times scaled by calibRefMS /
// (that loop's median time in this run): milliseconds on a host where the
// loop takes calibRefMS. The raw values and the scale factor are in the
// record. An allocation-free loop tracked the serving load worse.

// calibRefMS is about the loop's time on the two-core Xeon VM the
// benchmark was written on, when quiet.
const calibRefMS = 20.0

var calibSink int

// calibLoop is the fixed workload. Its work never changes with npra.
func calibLoop() {
	m := make(map[string]int)
	keys := make([]string, 0, 20000)
	x := uint64(1)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := strconv.FormatUint(x>>20, 36)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d\n", k, m[k])
	}
	calibSink += sb.Len()
}

// speed collects calibration samples over a run.
type speed struct{ samples []float64 }

// sample times the loop n times. Each starts on a just-collected heap,
// so no collection falls inside it and its time does not depend on how
// much heap the run holds; without that, the factor of runs on a quiet
// host spread ±25%.
func (s *speed) sample(n int) {
	for i := 0; i < n; i++ {
		runtime.GC()
		t := now()
		calibLoop()
		s.samples = append(s.samples, float64(time.Since(t).Nanoseconds())/1e6)
	}
}

// factor is how much slower than the reference host this run's host
// was: scaled time = raw time / factor, scaled rate = raw rate * factor.
func (s *speed) factor() float64 {
	return median(append([]float64(nil), s.samples...)) / calibRefMS
}

// scale converts the raw timings in o.metrics (names in times, rates in
// rates) and keeps the raw values and the factor, under label, in the
// record.
func (s *speed) scale(o *outcome, label string, times, rates []string) {
	f := s.factor()
	raw, _ := o.notes["raw"].(map[string]float64)
	if raw == nil {
		raw = map[string]float64{}
		o.notes["raw"] = raw
	}
	for _, n := range times {
		raw[n] = o.metrics[n]
		o.metrics[n] /= f
	}
	for _, n := range rates {
		raw[n] = o.metrics[n]
		o.metrics[n] *= f
	}
	o.notes["speed_factor_"+label] = f
	o.samples["speed_factor_"+label] = len(s.samples)
}
