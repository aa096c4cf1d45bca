package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"convmeter"
)

// TestRunWithTelemetry is the acceptance test for the run directory's
// telemetry: a real exttrainreal run with -run-dir must leave a
// Prometheus metrics file whose step counter matches the training loop
// and a Chrome trace whose fwd/bwd/grad events are time-contained within
// the experiment event.
func TestRunWithTelemetry(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	tracePath := filepath.Join(dir, "trace.json")
	outPath := filepath.Join(dir, "report.txt")
	opts := options{id: "exttrainreal", seed: 5, quick: true, runDir: dir}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}

	// Metrics: parse the exposition text into name -> value and check the
	// training-loop counters against the quick fixture's known shape
	// (2 workers × 6 steps).
	values := parsePromFile(t, metricsPath)
	const wantSteps = 6
	if got := values["convmeter_train_steps_total"]; got != wantSteps {
		t.Fatalf("convmeter_train_steps_total = %g, want %d", got, wantSteps)
	}
	if got := values["convmeter_experiments_total"]; got != 1 {
		t.Fatalf("convmeter_experiments_total = %g, want 1", got)
	}
	if got := values[`convmeter_allreduce_steps_total{transport="chan"}`]; got == 0 {
		t.Fatal("no allreduce steps recorded")
	}
	convmeterSamples := 0
	for name := range values {
		if strings.HasPrefix(name, "convmeter_") {
			convmeterSamples++
		}
	}
	if convmeterSamples < 10 {
		t.Fatalf("only %d convmeter_ samples; the run barely recorded anything", convmeterSamples)
	}

	// Trace: fwd/bwd/grad events must sit inside the experiment event.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TsUS  float64 `json:"ts"`
			DurUS float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var expStart, expEnd float64
	haveExp := false
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.Name == "experiment:exttrainreal" {
			expStart, expEnd = e.TsUS, e.TsUS+e.DurUS
			haveExp = true
		}
	}
	if !haveExp {
		t.Fatal("trace has no experiment:exttrainreal event")
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			continue
		}
		switch e.Name {
		case "fwd", "bwd", "grad":
			counts[e.Name]++
			if e.TsUS < expStart || e.TsUS+e.DurUS > expEnd {
				t.Fatalf("%s event [%g, %g] escapes the experiment window [%g, %g]",
					e.Name, e.TsUS, e.TsUS+e.DurUS, expStart, expEnd)
			}
		}
	}
	if counts["grad"] != wantSteps {
		t.Fatalf("%d grad events, want %d", counts["grad"], wantSteps)
	}
	if counts["fwd"] == 0 || counts["bwd"] == 0 {
		t.Fatalf("missing exec events: %v", counts)
	}

	// The report itself must still have been written.
	report, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "data-parallel training") {
		t.Fatal("report missing experiment output")
	}
}

// TestRunChaosWithRunDir is the acceptance test for the fault flags: a
// seeded exttrainfaults run must survive the chaos profile (crash,
// drops, corruption — the experiment asserts survivor correctness
// itself) and export positive fault counters; a re-run over the same
// -run-dir resumes the experiment from its manifest instead of
// re-training.
func TestRunChaosWithRunDir(t *testing.T) {
	dir := t.TempDir()
	opts := options{
		id: "exttrainfaults", seed: 1, quick: true, faultsSeed: 7,
		runDir: dir,
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	values := parsePromFile(t, filepath.Join(dir, "metrics.prom"))
	for _, class := range []string{"crash", "drop", "corrupt"} {
		series := `convmeter_faults_injected_total{class="` + class + `"}`
		if values[series] < 1 {
			t.Fatalf("%s = %g, want >= 1", series, values[series])
		}
	}
	if values["convmeter_train_workers_removed_total"] < 1 {
		t.Fatal("no worker removal recorded despite the scheduled crash")
	}

	// Re-run over the same directory: the experiment is served from its
	// manifest, so the trainer never runs and its counters stay dark.
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	if node := dagNode(t, filepath.Join(dir, "dag.json"), "exp:exttrainfaults"); node.State != "reused" {
		t.Fatalf("exp:exttrainfaults %s on re-run, want reused", node.State)
	}
	values2 := parsePromFile(t, filepath.Join(dir, "metrics.prom"))
	if got := values2["convmeter_train_steps_total"]; got != 0 {
		t.Fatalf("resumed run re-trained: %g steps", got)
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "survivor checksums identical") {
		t.Fatal("resumed report missing the cached experiment text")
	}
}

// TestRunWithoutTelemetry keeps the default path dark: no run directory,
// no ops server, no files.
func TestRunWithoutTelemetry(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	if err := run(options{id: "fig2", seed: 5, quick: true}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d file(s) written without -run-dir, want none", len(entries))
	}
}

// dagNodeDoc is one node row of dag.json.
type dagNodeDoc struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Manifest string `json:"manifest"`
}

// dagDoc mirrors the dag.json audit trail.
type dagDoc struct {
	Crashed string       `json:"crashed"`
	Resumed int          `json:"resumed"`
	Nodes   []dagNodeDoc `json:"nodes"`
}

// readDag parses a dag.json audit trail.
func readDag(t *testing.T, path string) dagDoc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc dagDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: invalid JSON: %v\n%s", path, err, data)
	}
	return doc
}

// dagNode returns node id's row of a dag.json audit trail.
func dagNode(t *testing.T, path, id string) dagNodeDoc {
	t.Helper()
	for _, n := range readDag(t, path).Nodes {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("%s has no node %s", path, id)
	return dagNodeDoc{}
}

// TestRunDagCrashResume is the CLI-level leg of the crash-resume proof:
// a -dag-crash run dies with ErrDagCrashed after committing its
// upstream manifests, and a plain re-run over the same -run-dir resumes
// and produces a report byte-identical to an uninterrupted run.
func TestRunDagCrashResume(t *testing.T) {
	dir := t.TempDir()
	base := options{
		id: "table1", seed: 5, quick: true, faultsSeed: 7,
		dagWorkers: 2,
	}

	clean := base
	clean.runDir = filepath.Join(dir, "clean")
	if err := run(clean); err != nil {
		t.Fatal(err)
	}

	crashed := base
	crashed.runDir = filepath.Join(dir, "resume")
	crashed.dagCrash = "lomo@boundary"
	err := run(crashed)
	if !errors.Is(err, convmeter.ErrDagCrashed) {
		t.Fatalf("crash run err = %v, want ErrDagCrashed", err)
	}
	audit := readDag(t, filepath.Join(crashed.runDir, "dag.json"))
	if audit.Crashed != "lomo@boundary" {
		t.Fatalf("audit blames %q, want lomo@boundary", audit.Crashed)
	}
	for _, n := range audit.Nodes {
		if n.ID == "fit" && (n.State != "done" || n.Manifest == "") {
			t.Fatalf("fit should have committed before the kill: %+v", n)
		}
	}

	resume := base
	resume.runDir = crashed.runDir
	if err := run(resume); err != nil {
		t.Fatalf("resume: %v", err)
	}
	cleanReport, err := os.ReadFile(filepath.Join(clean.runDir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	resumedReport, err := os.ReadFile(filepath.Join(resume.runDir, "report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(cleanReport) != string(resumedReport) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- clean ---\n%s\n--- resumed ---\n%s",
			cleanReport, resumedReport)
	}
	if got := readDag(t, filepath.Join(resume.runDir, "dag.json")).Resumed; got != 1 {
		t.Fatalf("resume reused %d node(s), want 1 (fit)", got)
	}
}

// parsePromFile reads a Prometheus text file into series -> value.
func parsePromFile(t *testing.T, path string) map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	values := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		values[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return values
}
