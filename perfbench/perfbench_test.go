package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runTiny runs one smoke-size invocation and decodes its result line.
func runTiny(t *testing.T, workload string, trace string) report {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.01", "-trace", trace, "-tiny"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", workload, trace, err)
	}
	return rep
}

// TestEveryMetricEmitted runs each workload at tiny size, untraced and
// traced, and checks the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and passes every check.
func TestEveryMetricEmitted(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": c.EndToEnd, "1": c.PerLayer} {
			rep := runTiny(t, w.Name, trace)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			var names []string
			for _, m := range want {
				names = append(names, m.Name)
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(rep.Metrics) != len(want) {
				var extra []string
				for name := range rep.Metrics {
					if !contains(names, name) {
						extra = append(extra, name)
					}
				}
				sort.Strings(extra)
				t.Errorf("%s trace=%s: metrics not in BENCHMARK.json: %v", w.Name, trace, extra)
			}
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// TestChecksFire corrupts each correctness check's input in turn and
// requires the run to report itself incorrect with failed ops.
func TestChecksFire(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
		tamper   string
	}{
		{"controller", false, "controller.validate"},
		{"controller", true, "controller.digest"},
		{"controller", true, "controller.layer_sum"},
		{"fleet", false, "fleet.conservation"},
		{"fleet", false, "fleet.digest"},
		{"fleet", true, "fleet.trace_digest"},
		{"fleet", true, "fleet.layer_sum"},
		{"admission", false, "admission.snapshot"},
		{"admission", true, "admission.digest"},
	} {
		cfg := config{workload: tc.workload, seed: 3, seconds: 0.01, trace: tc.trace, procs: 2, tiny: true, tamper: tc.tamper}
		rep, err := workloads[tc.workload](cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.tamper, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: tampered run reported correct=%v failed=%d", tc.tamper, rep.Correct, rep.Failed)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	if v, pct := tail(xs, 40); v != 29 || pct != 75 {
		t.Errorf("tail of 0..39 = %v at p%v, want 29 at p75", v, pct)
	}
	if v, pct := tail(xs, 20); v != 19 || pct != 50 {
		t.Errorf("tail of 0..39 with a 20-op first pass = %v at p%v, want 19 at p50", v, pct)
	}
	if v, pct := tail(xs[:5], 5); v != 39 || pct != 100 {
		t.Errorf("tail of 5 samples = %v at p%v, want the maximum at p100", v, pct)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"clite/internal/gp.(*GP).PredictBatch":         "gp",
		"clite/internal/optimize.(*Problem).gradient":  "optimize",
		"clite/internal/cluster.(*Scheduler).assess":   "cluster",
		"clite/internal/harness.Run":                   "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"strconv.FormatFloat":                          "fmt_strconv",
		"fmt.Fprintf":                                  "fmt_strconv",
		"math.Exp":                                     "other",
		"main.decide":                                  "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
