// Command perfbench is npra's benchmark: one named workload, driven from
// a seed for a fixed number of seconds, with its outputs checked.
//
//	perfbench -workload mix-warm|pressure-cold|paper-suite -seed N \
//	          -seconds S -trace 0|1 -npserve PATH [-out DIR]
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it
// runs the same seeded workload again with spans around each layer and
// reports the per-layer metrics. The last line of standard output is
// {"correct", "attempted", "failed", "metrics"}; the full record (host
// fingerprint, seed, sample counts, check failures) is printed on the
// line before it and written under -out. The exit code is 1 when the
// output checker or a workload precondition failed, 2 when the run
// could not be made at all. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd is what a user of npra sees. Every workload reports every one
// of them, so each record has the same shape (see README.md for how the
// paper's quality figures arise on the serving workloads).
var endToEnd = []metricSpec{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_share", "share"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"alloc_ms_p50", "ms"},
	{"suite_s", "s"},
	{"crit_cycles_per_pkt", "cycles"},
	{"noncrit_cycles_per_pkt", "cycles"},
	{"moves_inserted", "count"},
	{"sra_saving_pct", "%"},
}

// perLayer is reported by the traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{"serve.transport_ms_p50", "ms"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.raw_cache_hit_rate", "share"},
	{"serve.singleflight_hit_rate", "share"},
	{"serve.batch_size_mean", "count"},
	{"funccache.func_hit_rate", "share"},
	{"funccache.body_hit_rate", "share"},
	{"funccache.rewrite_hit_rate", "share"},
	{"funccache.rewrite_reloc_share", "share"},
	{"funccache.evictions_per_req", "count"},
	{"funccache.bytes", "MB"},
	{"funccache.rewrite_cached_ms", "ms"},
	{"core.decode_us", "us"},
	{"core.funcs_cached_us", "us"},
	{"core.canonical_key_us", "us"},
	{"core.allocate_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"core.wire_encode_us", "us"},
	{"ir.format_us", "us"},
	{"ig.build_ms", "ms"},
	{"estimate.merge_ms", "ms"},
	{"estimate.repair_ms", "ms"},
	{"intra.chain_coloring_ms", "ms"},
	{"intra.trials_per_req", "count"},
	{"intra.chain_steps_per_req", "count"},
	{"intra.solve_hit_rate", "share"},
	{"intra.rewrite_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.instrs", "count"},
	{"sim.ctx_switches", "count"},
	{"sim.idle_share", "share"},
	{"chaitin.alloc_ms", "ms"},
	{"interp.equiv_ms", "ms"},
	{"bench.unattributed_share", "share"},
	{"bench.trace_overhead_share", "share"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	npserve  string
	out      string
	commit   string
	digest   string
}

// outcome is what a workload run produces.
type outcome struct {
	attempted int
	failed    int
	problems  []string // failed checks and preconditions, first few kept
	metrics   map[string]float64
	samples   map[string]int // sample count behind each median/percentile
	notes     map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, notes: map[string]any{}}
}

// problem records a failed check or precondition.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// miss counts one operation that failed or returned a wrong answer.
func (o *outcome) miss(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "mix-warm, pressure-cold or paper-suite")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	fs.StringVar(&o.npserve, "npserve", "", "npserve binary (serving workloads)")
	fs.StringVar(&o.out, "out", "", "directory for the run record and spans")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the program under test")
	fs.StringVar(&o.digest, "source-digest", "", "digest of the program's source files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}

	var res *outcome
	var err error
	switch o.workload {
	case "mix-warm", "pressure-cold":
		res, err = runServing(o)
	case "paper-suite":
		res, err = runPaper(o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	metrics := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok {
			res.problem("metric %s was not measured", s.name)
		}
		metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if res.attempted < 1 {
		res.problem("no operation was attempted")
		res.attempted = 1
		res.failed = 1
	}
	correct := res.failed == 0 && len(res.problems) == 0

	record := map[string]any{
		"workload":  o.workload,
		"seed":      o.seed,
		"seconds":   o.seconds,
		"trace":     o.trace,
		"host":      hostFingerprint(o),
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"problems":  res.problems,
		"metrics":   metrics,
		"samples":   res.samples,
		"notes":     res.notes,
		"time":      now().UTC().Format(time.RFC3339),
	}
	line, err := json.Marshal(record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if o.out != "" {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
		if err := os.WriteFile(filepath.Join(o.out, name), append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	final, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(final))
	if !correct {
		return 1
	}
	return 0
}

// hostFingerprint identifies what the numbers were measured on.
func hostFingerprint(o options) map[string]any {
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(blob), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.IndexByte(l, ':'); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{
		"cpu":           cpu,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        o.commit,
		"source_digest": o.digest,
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	blob, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(l[len("VmHWM:"):]), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse %q: %w", l, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
