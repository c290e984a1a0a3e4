package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clite/internal/benchmarks"
)

func writeDoc(t *testing.T, dir, name string, results []benchmarks.Result) string {
	t.Helper()
	doc := output{Benchmarks: results}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareExtrasDirections(t *testing.T) {
	or := benchmarks.Result{Extra: map[string]float64{
		"placements_per_sec":     100,
		"cache_hit_rate":         0.8,
		"bo_iters_per_placement": 50,
		"unknown_metric":         1,
	}}

	// Everything improved: no reasons.
	nr := benchmarks.Result{Extra: map[string]float64{
		"placements_per_sec":     150,
		"cache_hit_rate":         0.9,
		"bo_iters_per_placement": 40,
	}}
	rows, reasons := compareExtras(or, nr)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (unknown metrics skipped): %v", len(rows), rows)
	}
	if len(reasons) != 0 {
		t.Errorf("improvements flagged as regressions: %v", reasons)
	}

	// Throughput down 30%, hit rate down 30%, BO effort up 30%: all
	// three cross the 20% gate in their worse direction.
	nr = benchmarks.Result{Extra: map[string]float64{
		"placements_per_sec":     70,
		"cache_hit_rate":         0.56,
		"bo_iters_per_placement": 65,
	}}
	_, reasons = compareExtras(or, nr)
	if len(reasons) != 3 {
		t.Errorf("reasons = %v, want all three gated extras", reasons)
	}

	// Within tolerance: -10% throughput passes.
	nr = benchmarks.Result{Extra: map[string]float64{"placements_per_sec": 90}}
	_, reasons = compareExtras(or, nr)
	if len(reasons) != 0 {
		t.Errorf("10%% drop flagged: %v", reasons)
	}
}

func TestRunCompareGatesExtras(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", []benchmarks.Result{{
		Name: "FleetPlace", NsPerOp: 1000,
		Extra: map[string]float64{"placements_per_sec": 100},
	}})

	// Same ns/op but collapsed throughput: the extras gate must fail
	// the compare even though the built-in metrics pass.
	newPath := writeDoc(t, dir, "new.json", []benchmarks.Result{{
		Name: "FleetPlace", NsPerOp: 1000,
		Extra: map[string]float64{"placements_per_sec": 40},
	}})
	err := runCompare(oldPath, newPath)
	if err == nil || !strings.Contains(err.Error(), "FleetPlace") {
		t.Errorf("collapsed throughput not gated: %v", err)
	}

	okPath := writeDoc(t, dir, "ok.json", []benchmarks.Result{{
		Name: "FleetPlace", NsPerOp: 1100,
		Extra: map[string]float64{"placements_per_sec": 95},
	}})
	if err := runCompare(oldPath, okPath); err != nil {
		t.Errorf("within-tolerance run failed: %v", err)
	}
}

// TestPerfTableSplicesOneFile renders the README table from a single
// result file and checks it replaces only the marked block.
func TestPerfTableSplicesOneFile(t *testing.T) {
	dir := t.TempDir()
	path := writeDoc(t, dir, "after.json", []benchmarks.Result{
		{Name: "GPFit", NsPerOp: 83200, BytesPerOp: 512, AllocsPerOp: 1},
		{Name: "FleetPlace", NsPerOp: 94.5e6, BytesPerOp: 3 << 20, AllocsPerOp: 733141,
			Extra: map[string]float64{"ns_per_op_min": 90e6, "ns_per_op_max": 101.25e6}},
	})
	readme := filepath.Join(dir, "README.md")
	before := "intro\n" + perftableBegin + "\nstale table\n" + perftableEnd + "\noutro\n"
	if err := os.WriteFile(readme, []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runPerfTable(path, readme); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	got := string(blob)
	for _, want := range []string{
		"intro\n" + perftableBegin + "\n",
		"| `GPFit` | 83.2 µs | 512 | 1 |\n",
		"| `FleetPlace` | 94.50 ms (90.00 ms–101.25 ms) | 3145728 | 733141 |\n",
		perftableEnd + "\noutro\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("spliced README lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "stale table") {
		t.Errorf("stale table survived the splice:\n%s", got)
	}
}

// TestPerfTableKeepsDirtyMark checks the table header shortens the
// revision to seven characters without dropping the "-dirty" suffix
// that marks evidence measured on an uncommitted tree.
func TestPerfTableKeepsDirtyMark(t *testing.T) {
	dir := t.TempDir()
	for rev, want := range map[string]string{
		"d4e55f2c0ffee":       "Measured at `d4e55f2` ",
		"d4e55f2c0ffee-dirty": "Measured at `d4e55f2-dirty` ",
	} {
		path := filepath.Join(dir, "after.json")
		if err := os.WriteFile(path, []byte(`{"git_revision":"`+rev+`"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		readme := filepath.Join(dir, "README.md")
		if err := os.WriteFile(readme, []byte(perftableBegin+"\n"+perftableEnd+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runPerfTable(path, readme); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(readme)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(blob), want) {
			t.Errorf("revision %q: header lacks %q:\n%s", rev, want, blob)
		}
	}
}
