// Command bench runs the hot-path benchmark suite and serializes the
// results as JSON:
//
//	bench -o BENCH_after.json
//
// The classic `go test -bench` lines are printed to stdout as well, so
// two runs can be diffed with benchstat. Two result files — typically
// the same suite run at the base commit and at the change — can also
// be diffed directly:
//
//	bench -compare base.json BENCH_after.json
//
// which prints a Δ% table per benchmark and exits non-zero when any
// shared benchmark regressed by more than 20% ns/op — the CI guard
// against silently losing a past optimization. -perftable renders one
// result file as the README performance table.
//
// -telemetry attaches a live tracer and metrics registry to the
// telemetry-capable benches; the flag is recorded in the JSON so
// -compare refuses to diff an instrumented run against an
// uninstrumented one. -cpuprofile and -memprofile write pprof profiles
// of the suite run for drilling into whatever the numbers surface.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"

	"clite/internal/benchmarks"
	"clite/internal/par"
)

// regressionTolerance is the fractional regression -compare accepts
// before failing, applied to ns/op, allocs/op, and bytes/op alike.
const regressionTolerance = 0.20

// Absolute noise floors for the allocation gates: a relative gate
// alone would fail 3→4 allocs/op (+33%) or a few hundred bytes of
// jitter, so a regression must clear both the relative tolerance and
// these absolute increases to count.
const (
	allocsNoiseFloor = 16   // allocs/op
	bytesNoiseFloor  = 2048 // B/op
)

// gatedExtras names the Result.Extra metrics -compare gates alongside
// ns/op, allocs/op, and bytes/op, with the direction that counts as
// better. Extras absent from either file are skipped — not every
// benchmark reports every metric.
var gatedExtras = []struct {
	name         string
	higherBetter bool
}{
	{"placements_per_sec", true},
	{"cache_hit_rate", true},
	{"bo_iters_per_placement", false},
}

// output is the result-file schema. Field order is the serialization
// order (encoding/json follows struct declaration order), so external
// tooling can rely on a stable layout: run metadata first, then the
// top-level "benchmarks" array in suite order.
type output struct {
	GoOS       string              `json:"goos"`
	GoArch     string              `json:"goarch"`
	NumCPU     int                 `json:"num_cpu"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	Workers    int                 `json:"workers"`
	Telemetry  bool                `json:"telemetry"`
	GitRev     string              `json:"git_revision,omitempty"`
	Benchmarks []benchmarks.Result `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "tiny problem sizes, fixed repetitions (smoke mode)")
	out := flag.String("o", "", "write JSON results to this file (default stdout)")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	perftable := flag.Bool("perftable", false, "render the README perf table: bench -perftable [-readme README.md] BENCH_after.json")
	readme := flag.String("readme", "", "with -perftable, splice the table into this file between the perftable markers")
	withTelemetry := flag.Bool("telemetry", false, "attach a live tracer and metrics registry to the telemetry-capable benches")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the suite run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the suite run to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two files, got %d args", flag.NArg())
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}
	if *perftable {
		if flag.NArg() != 1 {
			return fmt.Errorf("-perftable wants exactly one file, got %d args", flag.NArg())
		}
		return runPerfTable(flag.Arg(0), *readme)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	results := benchmarks.Run(benchmarks.Config{Quick: *quick, Telemetry: *withTelemetry})
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	for _, r := range results {
		fmt.Println(r.GoBenchLine())
	}

	doc := output{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    par.Count(0),
		Telemetry:  *withTelemetry,
		GitRev:     gitRevision(*out),
		Benchmarks: results,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(*out, blob, 0o644)
}

// gitRevision resolves the source revision: the build-info VCS stamp
// when the binary carries one, else a direct `git rev-parse`, else
// empty (results stay usable without provenance). A tree with
// uncommitted changes to tracked files, other than the output file
// itself, gets a "-dirty" suffix, so evidence measured before a commit
// never names its parent as the source.
func gitRevision(out string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			return markDirty(rev, dirty)
		}
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	args := []string{"status", "--porcelain", "--untracked-files=no"}
	if out != "" {
		args = append(args, "--", ".", ":(exclude)"+out)
	}
	status, err := exec.Command("git", args...).Output()
	return markDirty(strings.TrimSpace(string(head)), err != nil || strings.TrimSpace(string(status)) != "")
}

func markDirty(rev string, dirty bool) string {
	if dirty {
		return rev + "-dirty"
	}
	return rev
}

func load(path string) (output, error) {
	var doc output
	blob, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// runCompare prints a Δ% table over the benchmarks shared by both
// files and fails when any regressed beyond the tolerance. Benchmarks
// present in only one file are listed but never fail the run — suites
// grow over time and an old baseline should not block a new bench.
//
// Three built-in metrics are gated: ns/op on the relative tolerance
// alone, and allocs/op and bytes/op on the relative tolerance combined
// with an absolute noise floor (small counts make pure percentages
// meaningless — 3→4 allocs is +33% but not a regression worth failing
// CI over). Named Extra metrics (gatedExtras) are gated on the same
// relative tolerance in their better direction and printed as an
// indented Δ row under the owning benchmark.
func runCompare(oldPath, newPath string) error {
	oldDoc, err := load(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := load(newPath)
	if err != nil {
		return err
	}
	if oldDoc.Telemetry != newDoc.Telemetry {
		return fmt.Errorf("refusing to compare %s (telemetry=%v) against %s (telemetry=%v): "+
			"instrumented and uninstrumented runs measure different paths",
			oldPath, oldDoc.Telemetry, newPath, newDoc.Telemetry)
	}
	oldBy := make(map[string]benchmarks.Result, len(oldDoc.Benchmarks))
	for _, r := range oldDoc.Benchmarks {
		oldBy[r.Name] = r
	}
	fmt.Printf("%-24s %14s %14s %9s %9s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns/op", "Δallocs", "Δbytes")
	var regressed []string
	for _, nr := range newDoc.Benchmarks {
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Printf("%-24s %14s %14.0f %9s %9s %9s\n", nr.Name, "-", nr.NsPerOp, "new", "-", "-")
			continue
		}
		delete(oldBy, nr.Name)
		nsDelta := relDelta(or.NsPerOp, nr.NsPerOp)
		allocsDelta := relDelta(float64(or.AllocsPerOp), float64(nr.AllocsPerOp))
		bytesDelta := relDelta(float64(or.BytesPerOp), float64(nr.BytesPerOp))
		var reasons []string
		if nsDelta > regressionTolerance {
			reasons = append(reasons, "ns/op")
		}
		if allocsDelta > regressionTolerance && nr.AllocsPerOp-or.AllocsPerOp >= allocsNoiseFloor {
			reasons = append(reasons, "allocs/op")
		}
		if bytesDelta > regressionTolerance && nr.BytesPerOp-or.BytesPerOp >= bytesNoiseFloor {
			reasons = append(reasons, "bytes/op")
		}
		extraRows, extraReasons := compareExtras(or, nr)
		reasons = append(reasons, extraReasons...)
		mark := ""
		if len(reasons) > 0 {
			mark = "  REGRESSION(" + strings.Join(reasons, ",") + ")"
			regressed = append(regressed, nr.Name)
		}
		fmt.Printf("%-24s %14.0f %14.0f %+8.1f%% %+8.1f%% %+8.1f%%%s\n",
			nr.Name, or.NsPerOp, nr.NsPerOp,
			nsDelta*100, allocsDelta*100, bytesDelta*100, mark)
		for _, row := range extraRows {
			fmt.Println(row)
		}
	}
	for _, r := range oldDoc.Benchmarks {
		if _, unmatched := oldBy[r.Name]; unmatched {
			fmt.Printf("%-24s %14.0f %14s %9s %9s %9s\n", r.Name, r.NsPerOp, "-", "dropped", "-", "-")
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%: %s",
			len(regressed), regressionTolerance*100, strings.Join(regressed, ", "))
	}
	return nil
}

// compareExtras diffs the gated Extra metrics shared by one old and
// one new result, returning the indented Δ rows to print and the
// regression reasons (a gated extra moving more than the tolerance in
// its worse direction).
func compareExtras(or, nr benchmarks.Result) (rows, reasons []string) {
	for _, ge := range gatedExtras {
		ov, okOld := or.Extra[ge.name]
		nv, okNew := nr.Extra[ge.name]
		if !okOld || !okNew {
			continue
		}
		delta := relDelta(ov, nv)
		worse := delta < -regressionTolerance
		if !ge.higherBetter {
			worse = delta > regressionTolerance
		}
		mark := ""
		if worse {
			mark = "  REGRESSION"
			reasons = append(reasons, ge.name)
		}
		rows = append(rows, fmt.Sprintf("  %-22s %14.3f %14.3f %+8.1f%%%s",
			ge.name, ov, nv, delta*100, mark))
	}
	return rows, reasons
}

// Markers bounding the generated table in README.md; everything
// between them is owned by `make perftable` and overwritten on regen.
const (
	perftableBegin = "<!-- perftable:begin (generated by `make perftable` — do not edit by hand) -->"
	perftableEnd   = "<!-- perftable:end -->"
)

// runPerfTable renders the README performance table from one result
// file. With readmePath empty the markdown goes to stdout; otherwise
// it replaces the block between the perftable markers in that file,
// which is how `make perftable` keeps the README numbers from drifting
// away from BENCH_after.json. Change-over-time comparisons are
// -compare's job, against the same file at another commit.
func runPerfTable(path, readmePath string) error {
	doc, err := load(path)
	if err != nil {
		return err
	}
	var sb strings.Builder
	rev, dirty := strings.CutSuffix(doc.GitRev, "-dirty")
	if len(rev) > 7 {
		rev = rev[:7]
	}
	rev = markDirty(rev, dirty)
	fmt.Fprintf(&sb, "Measured at `%s` on %s/%s, %d CPUs (GOMAXPROCS %d).\n\n",
		rev, doc.GoOS, doc.GoArch, doc.NumCPU, doc.GoMaxProcs)
	sb.WriteString("| benchmark | time/op (min–max) | B/op | allocs/op |\n")
	sb.WriteString("|---|---|---|---|\n")
	for _, r := range doc.Benchmarks {
		t := humanNs(r.NsPerOp)
		if lo, hi := r.Extra["ns_per_op_min"], r.Extra["ns_per_op_max"]; hi > 0 {
			t += fmt.Sprintf(" (%s–%s)", humanNs(lo), humanNs(hi))
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %d | %d |\n",
			r.Name, t, r.BytesPerOp, r.AllocsPerOp)
	}
	table := sb.String()
	if readmePath == "" {
		_, err := os.Stdout.WriteString(table)
		return err
	}
	blob, err := os.ReadFile(readmePath)
	if err != nil {
		return err
	}
	text := string(blob)
	begin := strings.Index(text, perftableBegin)
	end := strings.Index(text, perftableEnd)
	if begin < 0 || end < 0 || end < begin {
		return fmt.Errorf("%s: perftable markers not found or out of order", readmePath)
	}
	spliced := text[:begin+len(perftableBegin)] + "\n" + table + text[end:]
	return os.WriteFile(readmePath, []byte(spliced), 0o644)
}

// humanNs renders a ns/op figure with the unit a human would pick.
func humanNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2f ms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1f µs", ns/1e3)
	default:
		return fmt.Sprintf("%.0f ns", ns)
	}
}

// relDelta is the fractional change from before to after, 0 when there
// is no before value to compare against.
func relDelta(before, after float64) float64 {
	if before <= 0 {
		return 0
	}
	return (after - before) / before
}
