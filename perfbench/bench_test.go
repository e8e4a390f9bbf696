package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"npra/internal/core"
	"npra/internal/serve"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// declared maps each metric name BENCHMARK.json declares to its unit.
func declared(bf benchmarkFile, trace bool) map[string]string {
	out := map[string]string{}
	if trace {
		for _, m := range bf.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range bf.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

// buildNpserve compiles the server under test into dir.
func buildNpserve(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "npserve")
	cmd := exec.Command("go", "build", "-o", bin, "npra/cmd/npserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building npserve: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, and requires every metric BENCHMARK.json declares, with its
// unit, plus the layer behaviour each workload was chosen for.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	npserve := buildNpserve(t, t.TempDir())
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				args := []string{"-workload", w.Name, "-seed", "5", "-seconds", "1", "-npserve", npserve, "-out", t.TempDir()}
				if trace {
					args = append(args, "-trace", "1")
				}
				var out bytes.Buffer
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int                    `json:"attempted"`
					Failed    int                    `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := declared(bf, trace)
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", name)
					case m.Unit != unit:
						t.Errorf("%s: unit %q, declared %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
					}
				}
				if trace {
					checkLayerPredictions(t, w.Name, res.Metrics)
				}
			})
		}
	}
}

// checkLayerPredictions pins which workload exercises which layer.
func checkLayerPredictions(t *testing.T, workload string, m map[string]metricValue) {
	t.Helper()
	v := func(name string) float64 { return m[name].Value }
	switch workload {
	case "mix-warm":
		if v("intra.trials_per_req") != 0 || v("funccache.func_hit_rate") < 0.95 {
			t.Errorf("mix-warm: trials/req %v (want 0), func hit rate %v (want ≈ 1)",
				v("intra.trials_per_req"), v("funccache.func_hit_rate"))
		}
	case "pressure-cold":
		if v("intra.trials_per_req") <= 0 || v("funccache.func_hit_rate") > 0.05 {
			t.Errorf("pressure-cold: trials/req %v (want > 0), func hit rate %v (want ≈ 0)",
				v("intra.trials_per_req"), v("funccache.func_hit_rate"))
		}
	}
	if simRuns := v("sim.run_ms") > 0; simRuns != (workload == "paper-suite") {
		t.Errorf("%s: sim.run_ms = %v; only paper-suite runs the simulator", workload, v("sim.run_ms"))
	}
}

// TestMetricListsMatchBenchmarkFile keeps the program's metric tables and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		trace bool
		specs []metricSpec
	}{{false, endToEnd}, {true, perLayer}} {
		want := declared(bf, c.trace)
		if len(want) != len(c.specs) {
			t.Errorf("trace %v: BENCHMARK.json declares %d metrics, the program %d", c.trace, len(want), len(c.specs))
		}
		for _, s := range c.specs {
			if want[s.name] != s.unit {
				t.Errorf("%s: program unit %q, BENCHMARK.json %q", s.name, s.unit, want[s.name])
			}
		}
	}
}

// TestCheckerRejectsTamperedDump serves a real allocation through the
// dump checker, then tampers with it in three ways.
func TestCheckerRejectsTamperedDump(t *testing.T) {
	st, err := newStream("pressure-cold", 3)
	if err != nil {
		t.Fatal(err)
	}
	req := st.wire(0)
	funcs, err := req.Funcs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.AllocateARA(funcs, core.Config{NReg: req.NReg})
	if err != nil {
		t.Fatal(err)
	}
	served := func() *serve.Response { return &serve.Response{WireResponse: *want.Wire(true)} }
	if err := checkDump(funcs, served(), want); err != nil {
		t.Fatalf("untampered dump rejected: %v", err)
	}

	noStores := served()
	var kept []string
	for _, l := range strings.Split(noStores.Threads[0].Asm, "\n") {
		if !strings.Contains(l, "store") {
			kept = append(kept, l)
		}
	}
	if len(kept) == len(strings.Split(noStores.Threads[0].Asm, "\n")) {
		t.Fatal("thread 0 has no store to tamper with")
	}
	noStores.Threads[0].Asm = strings.Join(kept, "\n")

	regrant := served()
	regrant.Threads[1].PR++

	garbled := served()
	garbled.Threads[0].Asm += "\n\tbogus r1, r2\n"

	for name, resp := range map[string]*serve.Response{"stores dropped": noStores, "grant changed": regrant, "unparsable": garbled} {
		if err := checkDump(funcs, resp, want); err == nil {
			t.Errorf("%s: tampered dump accepted", name)
		}
	}
}
