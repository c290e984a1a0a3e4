// Command perfbench is the repository's benchmark of record. It drives
// the public APIs of internal/core, internal/cluster and internal/fleet
// from outside, on three seeded workloads:
//
//   - controller: closed-loop CLITE decisions, one fresh
//     core.New(machine, paper defaults).Run() per co-located mix;
//   - fleet: fleet.New + Run at 1,024 nodes over seeds derived from
//     the workload seed;
//   - admission: one client streaming cluster.Scheduler Place and
//     Remove calls at an 8-node scheduler with a cold profile cache.
//
// A run with -trace 0 measures the end-to-end metrics with tracing
// off. A run with -trace 1 measures the same first pass untraced, then
// again with timing wrappers, tracer taps, registry reads and a CPU
// profile, and reports the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. Everything before it is a human-readable table.
//
// Usage:
//
//	perfbench -workload controller -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// maxProcs caps every source of parallelism the benchmark controls:
// GOMAXPROCS, bo.Options.Workers, cluster ScreenWorkers and fleet
// Shards. The benchmark is sized for a 2-core host.
const maxProcs = 2

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	artifacts string // directory for raw CPU profiles ("" keeps none)
	procs     int
	// tiny shrinks every workload to a seconds-long smoke size; the
	// benchmark's own tests use it.
	tiny bool
	// tamper names one correctness check whose input is corrupted
	// before the check runs; the tests use it to show each check
	// fires. Empty in every real run.
	tamper string
}

// metric is one named measurement in the output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines printed above the result line:
	// the workload-specific names of the generic metrics, tail percentiles
	// and sample counts, and failed-check diagnostics.
	notes []string
	// failed holds the ops that failed a check; an op failing several
	// checks counts once.
	failed map[string]bool
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records that the op named op failed a correctness check.
func (r *report) fail(op string, format string, args ...any) {
	if r.failed == nil {
		r.failed = make(map[string]bool)
	}
	r.failed[op] = true
	r.Failed = len(r.failed)
	r.Correct = false
	r.note("CHECK FAILED: "+op+": "+format, args...)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"controller": runController,
	"fleet":      runFleet,
	"admission":  runAdmission,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: controller, fleet or admission")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	fs.StringVar(&cfg.artifacts, "artifacts", "", "directory that keeps the traced run's raw CPU profile")
	fs.BoolVar(&cfg.tiny, "tiny", false, "smoke-size workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if !(cfg.seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	cfg.trace = trace == 1
	cfg.procs = min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(cfg.procs)

	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := writeReport(stdout, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// writeReport prints the notes, a name/value/unit table and, last, the
// JSON result line.
func writeReport(w io.Writer, cfg config, rep *report) error {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d num_cpu=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// deadline reports whether a run that started at start has used its
// measurement budget.
func deadline(cfg config, start time.Time) bool {
	return time.Since(start).Seconds() >= cfg.seconds
}
