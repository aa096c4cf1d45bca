// Command perfbench is ConvMeter's end-to-end benchmark. It drives the
// real gocpu measurement campaign and its fit (infer-real), real
// data-parallel ResNet-18 training (train-real) and the analytical,
// no-execution half of the method (analytic) through the packages'
// public functions, checks every output it can see, and prints one JSON
// result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload infer-real --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is a separate run that measures half of --seconds untraced and half
// traced, attaches the program's telemetry hooks, and reports per-layer
// metrics, layer self times and the tracing overhead. --workload all
// runs the three workloads one after another in this process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// report collects one workload run's counts, checks and metrics.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64 // declared end-to-end metrics
	layer     map[string]float64 // declared per-layer metrics
	notes     []string           // human-readable lines printed before the JSON
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op records one attempted operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failed operation and keeps its reason.
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

// notef adds a human-readable report line.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// The declared metrics, with their units. BENCHMARK.json lists the same
// names (checked by TestDeclaredMetricsMatchBenchmarkJSON).
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"op_s_p50":    "s",
	"work_per_s":  "1/s",
}

// result renders the JSON result: end-to-end metrics untraced, per-layer
// metrics traced. Every declared metric is present; a per-layer metric
// whose layer the workload never reaches reads 0.
func (r *report) result(trace bool) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
		}
		return res
	}
	for name, unit := range e2eUnits {
		res.Metrics[name] = metric{Value: r.e2e[name], Unit: unit}
	}
	return res
}

var workloads = map[string]func(runConfig) (*report, error){
	"infer-real": runInfer,
	"train-real": runTrain,
	"analytic":   runAnalytic,
}

var workloadOrder = []string{"infer-real", "train-real", "analytic"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "infer-real, train-real, analytic or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: traced per-layer run")
	printRef := fs.Bool("print-reference", false, "compute the committed reference outputs and print them as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printRef {
		if err := printReference(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var reports []*report
	for _, name := range names {
		fn, ok := workloads[name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s or all)\n", name, strings.Join(workloadOrder, ", "))
			return 2
		}
		t0 := readCPUTicks()
		rep, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		steal := stealShare(t0, readCPUTicks())
		rep.layer["host.steal_share"] = steal
		rep.notef("host steal: %.1f%% of CPU time went to other tenants during the run", steal*100)
		printReport(stdout, rep, cfg.trace)
		reports = append(reports, rep)
	}
	final := reports[0].result(cfg.trace)
	if len(reports) > 1 {
		final = combine(reports, cfg.trace)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if final.Failed > 0 {
		return 1
	}
	return 0
}

// combine merges several workloads' results for --workload all, keying
// each metric as <workload>.<metric>.
func combine(reports []*report, trace bool) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, rep := range reports {
		r := rep.result(trace)
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			out.Metrics[rep.workload+"."+name] = m
		}
	}
	return out
}

// printReport writes the human-readable lines of one workload run.
func printReport(w io.Writer, rep *report, trace bool) {
	mode := "untraced"
	if trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): %d operations attempted, %d failed\n", rep.workload, mode, rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	res := rep.result(trace)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "   %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

// deadline is the closed-loop timer: operations start only while it has
// not passed.
type deadline time.Time

func after(seconds float64) deadline {
	return deadline(time.Now().Add(time.Duration(seconds * float64(time.Second))))
}

func (d deadline) passed() bool { return !time.Now().Before(time.Time(d)) }

// errCheck builds a check-failure error.
func errCheck(format string, args ...any) error {
	return errors.New("check: " + fmt.Sprintf(format, args...))
}
