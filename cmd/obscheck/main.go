// Command obscheck validates the artefacts of one experiment run. Given
// the directory written by `experiments -run-dir DIR`, it checks every
// fixed-name artefact it finds there — report, CSV series, Prometheus
// metrics, Chrome trace (including span-graph well-formedness), drift
// snapshot, critical-path report, DAG audit trail — and
// the committed manifests, through the executor's own fail-close parser
// (manifest.Parse), so a tampered output is rejected here exactly as a
// resume would reject it. The -require-*/-forbid-* flags add verdict
// assertions on top: a chaos run injected faults, a slowdown run was
// caught drifting and blamed, a clean run was not. -bench
// validates a benchmark baseline snapshot written by cmd/benchsnap.
// CI's smoke targets run it against real runs, so a formatting
// regression fails the build rather than silently producing files
// Grafana, Perfetto or benchsnap -check reject.
//
// Usage:
//
//	obscheck [-require-faults] [-require-drift|-forbid-drift] \
//	         [-require-blame N|-forbid-blame] RUN_DIR
//	obscheck -bench BENCH_<n>.json
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"convmeter/internal/dagrun"
	"convmeter/internal/dagrun/manifest"
	"convmeter/internal/experiments"
	"convmeter/internal/obs/critpath"
)

// assertions are the verdict checks layered over plain validation.
type assertions struct {
	requireFaults             bool
	requireDrift, forbidDrift bool
	requireBlame              int // -1 disables
	forbidBlame               bool
}

func main() {
	var a assertions
	bench := flag.String("bench", "", "benchmark snapshot JSON to validate (from benchsnap -out, e.g. BENCH_1.json)")
	flag.BoolVar(&a.requireFaults, "require-faults", false, "additionally require a convmeter_faults_injected_total sample with value > 0 in metrics.prom (chaos-run validation)")
	flag.BoolVar(&a.requireDrift, "require-drift", false, "additionally require at least one drift event and a drifting stream in drift.json (slowdown-run validation)")
	flag.BoolVar(&a.forbidDrift, "forbid-drift", false, "additionally require zero drift events in drift.json (clean-run validation)")
	flag.IntVar(&a.requireBlame, "require-blame", -1, "additionally require at least one critpath.json step blaming this worker (straggler-run validation); -1 disables")
	flag.BoolVar(&a.forbidBlame, "forbid-blame", false, "additionally require zero blamed steps in critpath.json (clean-run validation)")
	flag.Parse()
	dir := flag.Arg(0)
	if flag.NArg() > 1 || (dir == "" && *bench == "") {
		fmt.Fprintln(os.Stderr, "obscheck: pass one run directory and/or -bench FILE (see -h)")
		os.Exit(2)
	}
	if err := a.validate(dir != ""); err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(2)
	}
	if *bench != "" {
		if err := checkBench(*bench); err != nil {
			fmt.Fprintln(os.Stderr, "obscheck:", err)
			os.Exit(1)
		}
		fmt.Printf("obscheck: %s ok\n", *bench)
	}
	if dir != "" {
		checked, err := checkRunDir(dir, a)
		for _, path := range checked {
			fmt.Printf("obscheck: %s ok\n", path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "obscheck:", err)
			os.Exit(1)
		}
	}
}

// validate rejects contradictory assertions, and assertions without a
// run directory to judge.
func (a assertions) validate(haveDir bool) error {
	if !haveDir && (a.requireFaults || a.requireDrift || a.forbidDrift || a.requireBlame >= 0 || a.forbidBlame) {
		return errors.New("the -require-*/-forbid-* assertions need a run directory")
	}
	if a.requireDrift && a.forbidDrift {
		return errors.New("-require-drift and -forbid-drift are mutually exclusive")
	}
	if a.requireBlame >= 0 && a.forbidBlame {
		return errors.New("-require-blame and -forbid-blame are mutually exclusive")
	}
	return nil
}

// checkRunDir validates every fixed-name artefact present in a run
// directory and returns the paths that passed. An artefact an assertion
// needs must be present; a directory holding none at all fails.
func checkRunDir(dir string, a assertions) ([]string, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("%s: not a run directory", dir)
	}
	in := func(name string) string { return filepath.Join(dir, name) }
	artefacts := []struct {
		name   string
		needed bool // an assertion judges this artefact
		check  func(path string) error
	}{
		{experiments.ReportFile, false, checkReport},
		{experiments.CSVDir, false, checkCSVDir},
		{experiments.MetricsFile, a.requireFaults, func(p string) error { return checkMetrics(p, a.requireFaults) }},
		{experiments.TraceFile, false, checkTrace},
		{experiments.DriftFile, a.requireDrift || a.forbidDrift, func(p string) error {
			return checkDrift(p, a.requireDrift, a.forbidDrift)
		}},
		{experiments.CritpathFile, a.requireBlame >= 0 || a.forbidBlame, func(p string) error {
			return checkCritpath(p, a.requireBlame, a.forbidBlame)
		}},
		{experiments.DagFile, false, func(p string) error { return checkDag(p, in(experiments.ManifestsDir)) }},
		{experiments.ManifestsDir, false, checkManifests},
	}
	var checked []string
	for _, art := range artefacts {
		path := in(art.name)
		if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
			if art.needed {
				return checked, fmt.Errorf("%s: missing, but an assertion judges it", path)
			}
			continue
		}
		if err := art.check(path); err != nil {
			return checked, err
		}
		checked = append(checked, path)
	}
	if len(checked) == 0 {
		return nil, fmt.Errorf("%s: no run artefacts found", dir)
	}
	return checked, nil
}

// checkReport requires a non-empty rendered report.
func checkReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return fmt.Errorf("%s: empty report", path)
	}
	return nil
}

// checkCSVDir requires every *.csv series to parse as CSV with a
// consistent column count and a header row.
func checkCSVDir(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return err
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rows, err := csv.NewReader(f).ReadAll()
		_ = f.Close() // read-only: the parse result is what matters
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if len(rows) == 0 {
			return fmt.Errorf("%s: no header row", path)
		}
	}
	return nil
}

// checkDag validates the DAG audit trail: the schema tag, unique node
// ids in legal states, a resume count matching the reused nodes, and —
// where the run committed manifests — every recorded manifest hash
// matching the committed manifest's own.
func checkDag(path, manifestsDir string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep dagrun.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: invalid DAG report JSON: %v", path, err)
	}
	if rep.Schema != dagrun.SchemaV1 {
		return fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, dagrun.SchemaV1)
	}
	states := map[string]bool{}
	for _, st := range dagrun.States {
		states[st] = true
	}
	seen := map[string]bool{}
	reused := 0
	for _, n := range rep.Nodes {
		if n.ID == "" || seen[n.ID] {
			return fmt.Errorf("%s: empty or duplicate node id %q", path, n.ID)
		}
		seen[n.ID] = true
		if !states[n.State] {
			return fmt.Errorf("%s: node %s: unknown state %q", path, n.ID, n.State)
		}
		if n.State == dagrun.StateReused {
			reused++
		}
		if n.Manifest == "" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(manifestsDir, n.ID+".json"))
		if err != nil {
			return fmt.Errorf("%s: node %s records manifest %s: %v", path, n.ID, n.Manifest, err)
		}
		m, err := manifest.Parse(raw)
		if err != nil {
			return fmt.Errorf("%s: node %s: %v", path, n.ID, err)
		}
		if m.Hash != n.Manifest {
			return fmt.Errorf("%s: node %s records manifest %s, but the committed manifest's hash is %s", path, n.ID, n.Manifest, m.Hash)
		}
	}
	if reused != rep.Resumed {
		return fmt.Errorf("%s: resumed %d, but %d node(s) are reused", path, rep.Resumed, reused)
	}
	return nil
}

// checkManifests validates a run's manifest directory: every *.json
// file passes manifest.Parse — the executor's own fail-close parser,
// which checks the schema and field shapes and recomputes the content
// hash, so a tampered output is caught here exactly as dagrun would
// catch it — and names the node its file is named after; every input
// resolves to a committed manifest; the input graph is acyclic; and
// every recorded input hash matches its dependency's stored hash (the
// content-address chain is unbroken). An empty directory fails: a run
// that committed nothing has no resume to audit.
func checkManifests(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	mans := map[string]*manifest.Manifest{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		m, err := manifest.Parse(data)
		if err != nil {
			return fmt.Errorf("%s/%s: %v", dir, name, err)
		}
		if m.Node+".json" != name {
			return fmt.Errorf("%s/%s: names node %q, want the file's own stem", dir, name, m.Node)
		}
		mans[m.Node] = m
	}
	if len(mans) == 0 {
		return fmt.Errorf("%s: no manifests (*.json) found", dir)
	}
	// Resolvability and acyclicity: depth-first over sorted ids; a
	// missing input breaks the chain, a back edge is a cycle.
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var visit func(n string, path []string) error
	visit = func(n string, path []string) error {
		switch state[n] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("%s: input cycle through %s (path %s)", dir, n, strings.Join(append(path, n), " -> "))
		}
		state[n] = visiting
		for _, d := range sortedKeys(mans[n].Inputs) {
			if mans[d] == nil {
				return fmt.Errorf("%s: manifest %s consumes input %s, but no manifest for it exists — the chain is broken", dir, n, d)
			}
			if err := visit(d, append(path, n)); err != nil {
				return err
			}
		}
		state[n] = done
		return nil
	}
	nodes := sortedKeys(mans)
	for _, n := range nodes {
		if err := visit(n, nil); err != nil {
			return err
		}
	}
	for _, n := range nodes {
		for _, d := range sortedKeys(mans[n].Inputs) {
			if h := mans[n].Inputs[d]; mans[d].Hash != h {
				return fmt.Errorf("%s: manifest %s recorded input hash %s for %s, but its manifest's hash is %s — stale or tampered", dir, n, h, d, mans[d].Hash)
			}
		}
	}
	return nil
}

// sortedKeys returns a map's keys in sorted order, so every check
// reports the same first failure on every run.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// critpathClasses are the phases a step may legally report as dominant.
var critpathClasses = map[string]bool{
	"compute": true, "comm": true, "wait": true, "none": true,
}

// checkCritpath validates a critical-path attribution report: the
// schema tag, finite non-negative durations, legal dominant phases, and
// blame consistency (a blamed worker exists in the step's worker list
// and the step is wait-dominated). With requireBlame >= 0 it demands at
// least one step blaming that worker (a straggler run must have been
// attributed); with forbidBlame it demands no blamed steps at all.
func checkCritpath(path string, requireBlame int, forbidBlame bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Schema string `json:"schema"`
		Steps  []struct {
			Step      int     `json:"step"`
			Total     float64 `json:"total_seconds"`
			Compute   float64 `json:"compute_seconds"`
			Comm      float64 `json:"comm_seconds"`
			Wait      float64 `json:"wait_seconds"`
			Dominant  string  `json:"dominant"`
			Blame     *int    `json:"blame"`
			BlameWait float64 `json:"blame_wait_seconds"`
			Workers   []struct {
				Worker     int     `json:"worker"`
				Compute    float64 `json:"compute_seconds"`
				Comm       float64 `json:"comm_seconds"`
				Wait       float64 `json:"wait_seconds"`
				CausedWait float64 `json:"caused_wait_seconds"`
			} `json:"workers"`
			Path []struct {
				Span         int64   `json:"span"`
				Class        string  `json:"class"`
				Contribution float64 `json:"contribution_seconds"`
			} `json:"path"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid critpath JSON: %v", path, err)
	}
	if doc.Schema != critpath.SchemaV1 {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, critpath.SchemaV1)
	}
	if doc.Steps == nil {
		return fmt.Errorf("%s: steps missing or null", path)
	}
	blamed := map[int]int{} // worker -> blamed-step count
	for i, st := range doc.Steps {
		for what, v := range map[string]float64{
			"total_seconds": st.Total, "compute_seconds": st.Compute,
			"comm_seconds": st.Comm, "wait_seconds": st.Wait,
			"blame_wait_seconds": st.BlameWait,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%s: step %d (index %d): %s = %v, want finite and non-negative", path, st.Step, i, what, v)
			}
		}
		if !critpathClasses[st.Dominant] {
			return fmt.Errorf("%s: step %d: unknown dominant phase %q", path, st.Step, st.Dominant)
		}
		if st.Blame == nil {
			return fmt.Errorf("%s: step %d: blame missing", path, st.Step)
		}
		if b := *st.Blame; b >= 0 {
			if st.Dominant != "wait" {
				return fmt.Errorf("%s: step %d: blames worker %d but dominant is %q", path, st.Step, b, st.Dominant)
			}
			found := false
			for _, w := range st.Workers {
				if w.Worker == b {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("%s: step %d: blamed worker %d not in worker attribution", path, st.Step, b)
			}
			blamed[b]++
		}
		prev := -1 << 62
		for _, w := range st.Workers {
			if w.Worker <= prev {
				return fmt.Errorf("%s: step %d: workers not sorted by id", path, st.Step)
			}
			prev = w.Worker
			for what, v := range map[string]float64{
				"compute_seconds": w.Compute, "comm_seconds": w.Comm,
				"wait_seconds": w.Wait, "caused_wait_seconds": w.CausedWait,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("%s: step %d: worker %d: %s = %v", path, st.Step, w.Worker, what, v)
				}
			}
		}
		for _, p := range st.Path {
			if math.IsNaN(p.Contribution) || math.IsInf(p.Contribution, 0) || p.Contribution < 0 {
				return fmt.Errorf("%s: step %d: path span %d contribution %v", path, st.Step, p.Span, p.Contribution)
			}
		}
	}
	if forbidBlame && len(blamed) > 0 {
		return fmt.Errorf("%s: %d blamed step(s) on a clean run (false positive)", path, len(blamed))
	}
	if requireBlame >= 0 {
		if blamed[requireBlame] == 0 {
			return fmt.Errorf("%s: no step blames worker %d (blamed: %v) — the straggler was missed", path, requireBlame, blamed)
		}
		for w := range blamed {
			if w != requireBlame {
				return fmt.Errorf("%s: worker %d blamed alongside expected straggler %d", path, w, requireBlame)
			}
		}
	}
	return nil
}

// benchSchema is the snapshot format benchsnap writes; keep in sync
// with cmd/benchsnap's SchemaV1.
const benchSchema = "convmeter/bench-snapshot/v1"

// checkBench validates a benchmark baseline snapshot: the schema tag,
// a non-empty benchmark list sorted by unique name (so diffs are
// stable), at least one measured iteration per benchmark, and finite,
// sane values throughout — a baseline with a NaN or a zero ns/op would
// make every later benchsnap -check comparison meaningless.
func checkBench(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Schema     string `json:"schema"`
		Go         string `json:"go"`
		Benchmarks []struct {
			Name        string   `json:"name"`
			Iterations  int64    `json:"iterations"`
			NsPerOp     *float64 `json:"ns_per_op"`
			BytesPerOp  float64  `json:"bytes_per_op"`
			AllocsPerOp float64  `json:"allocs_per_op"`
			MBPerS      float64  `json:"mb_per_s"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid bench JSON: %v", path, err)
	}
	if doc.Schema != benchSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, benchSchema)
	}
	if doc.Go == "" {
		return fmt.Errorf("%s: missing go version stamp", path)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks", path)
	}
	prev := ""
	for i, b := range doc.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("%s: benchmark %d has no name", path, i)
		}
		if b.Name <= prev {
			return fmt.Errorf("%s: benchmark names not sorted/unique at %q", path, b.Name)
		}
		prev = b.Name
		if b.Iterations < 1 {
			return fmt.Errorf("%s: %s: iterations %d, want >= 1", path, b.Name, b.Iterations)
		}
		if b.NsPerOp == nil {
			return fmt.Errorf("%s: %s: ns_per_op missing", path, b.Name)
		}
		for what, v := range map[string]float64{
			"ns_per_op": *b.NsPerOp, "bytes_per_op": b.BytesPerOp,
			"allocs_per_op": b.AllocsPerOp, "mb_per_s": b.MBPerS,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("%s: %s: %s = %v, want finite and non-negative", path, b.Name, what, v)
			}
		}
		if *b.NsPerOp == 0 {
			return fmt.Errorf("%s: %s: ns_per_op is zero", path, b.Name)
		}
	}
	return nil
}

// faultsSeries is the counter family a chaos run must have populated.
const faultsSeries = "convmeter_faults_injected_total"

// checkMetrics validates the exposition format line by line and requires
// at least one convmeter_-prefixed sample with a finite value. With
// requireFaults it additionally demands a positive fault-injection
// counter — the proof that a chaos run actually injected something.
func checkMetrics(path string, requireFaults bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, faults := 0, 0.0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// A sample line is "<series> <value>"; the series may carry a
		// {label="..."} body which itself contains no spaces the way the
		// registry renders it.
		sp := strings.LastIndexByte(text, ' ')
		if sp <= 0 {
			return fmt.Errorf("%s:%d: not a sample line: %q", path, line, text)
		}
		val, err := strconv.ParseFloat(text[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("%s:%d: bad sample value: %v", path, line, err)
		}
		if strings.HasPrefix(text, "convmeter_") {
			samples++
		}
		if strings.HasPrefix(text, faultsSeries) {
			faults += val
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("%s: no convmeter_ samples", path)
	}
	if requireFaults && faults <= 0 {
		return fmt.Errorf("%s: no positive %s sample (chaos run injected nothing?)", path, faultsSeries)
	}
	return nil
}

// driftStates are the states a drift stream may legally report.
var driftStates = map[string]bool{
	"calibrating": true, "warmup": true, "ok": true, "drifting": true,
}

// checkDrift validates a drift-monitor snapshot: a streams array whose
// entries carry a model, a phase and a legal state, with non-negative
// pair/event counts that are consistent with the top-level total. With
// requireDrift it additionally demands at least one event on a drifting
// stream (a slowdown run must have been caught); with forbidDrift it
// demands zero events (a clean run must not false-positive).
func checkDrift(path string, requireDrift, forbidDrift bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Streams []struct {
			Model  string `json:"model"`
			Phase  string `json:"phase"`
			State  string `json:"state"`
			Pairs  int    `json:"pairs"`
			Events int    `json:"events"`
		} `json:"streams"`
		Events *int `json:"events_total"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid drift JSON: %v", path, err)
	}
	if doc.Streams == nil || doc.Events == nil {
		return fmt.Errorf("%s: streams or events_total missing", path)
	}
	total, drifting := 0, false
	for i, st := range doc.Streams {
		if st.Model == "" || st.Phase == "" {
			return fmt.Errorf("%s: stream %d has no model/phase", path, i)
		}
		if !driftStates[st.State] {
			return fmt.Errorf("%s: stream %s/%s has unknown state %q", path, st.Model, st.Phase, st.State)
		}
		if st.Pairs < 0 || st.Events < 0 {
			return fmt.Errorf("%s: stream %s/%s has negative counts", path, st.Model, st.Phase)
		}
		total += st.Events
		if st.State == "drifting" {
			drifting = true
		}
	}
	if total != *doc.Events {
		return fmt.Errorf("%s: events_total %d != sum of stream events %d", path, *doc.Events, total)
	}
	if requireDrift && (total < 1 || !drifting) {
		return fmt.Errorf("%s: no drift detected (events_total=%d) — the slowdown run was missed", path, total)
	}
	if forbidDrift && total != 0 {
		return fmt.Errorf("%s: %d drift event(s) on a clean run (false positive)", path, total)
	}
	return nil
}

// linkTolerance is the cross-worker ordering slack checkTrace allows on
// causal links, in trace microseconds: after clock alignment a wait may
// still appear to end slightly before its cross-worker sender started
// (the handshake is accurate to a fraction of one link round-trip), but
// a gross violation means the alignment, or the trace, is broken.
const linkTolerance = 10_000 // 10ms

// checkTrace requires a well-formed Chrome trace-event document with a
// non-null traceEvents array. Events that carry span args (the tracer's
// exporter attaches {id, parent, link}) are additionally graph-checked:
// span ids must be unique, non-zero parents must resolve to another
// span in the document, durations must be non-negative, and a causal
// link must not travel backwards in time beyond linkTolerance — the
// linked sender must not *end* after the waiting span does by more than
// the alignment slack. Dangling links (the sender faulted and never
// recorded) are tolerated.
func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    *float64       `json:"ts"`
			Dur   float64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid trace JSON: %v", path, err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("%s: traceEvents missing or null", path)
	}
	type spanEv struct {
		start, end float64
	}
	spans := map[int64]spanEv{}
	type pending struct {
		name   string
		parent int64
		link   int64
		end    float64
	}
	var checks []pending
	argID := func(args map[string]any, key string) (int64, bool) {
		v, ok := args[key].(float64)
		return int64(v), ok
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("%s: event %d has no name", path, i)
		}
		if e.Phase != "X" {
			continue
		}
		if e.TS == nil {
			return fmt.Errorf("%s: event %d (%s): duration event without ts", path, i, e.Name)
		}
		if *e.TS < 0 || e.Dur < 0 {
			return fmt.Errorf("%s: event %d (%s): negative ts/dur (%g/%g)", path, i, e.Name, *e.TS, e.Dur)
		}
		id, ok := argID(e.Args, "id")
		if !ok {
			continue // not a span-exported event; format-only checks apply
		}
		if _, dup := spans[id]; dup {
			return fmt.Errorf("%s: event %d (%s): duplicate span id %d", path, i, e.Name, id)
		}
		spans[id] = spanEv{start: *e.TS, end: *e.TS + e.Dur}
		p := pending{name: e.Name, end: *e.TS + e.Dur}
		p.parent, _ = argID(e.Args, "parent")
		p.link, _ = argID(e.Args, "link")
		checks = append(checks, p)
	}
	for _, c := range checks {
		if c.parent != 0 {
			if _, ok := spans[c.parent]; !ok {
				return fmt.Errorf("%s: span %q: unresolvable parent %d", path, c.name, c.parent)
			}
		}
		if c.link != 0 {
			sender, ok := spans[c.link]
			if !ok {
				continue // dangling link: the sender faulted mid-op
			}
			if sender.end > c.end+linkTolerance {
				return fmt.Errorf("%s: span %q ends %.0fµs before its linked sender %d — cross-worker time-travel beyond the %dµs alignment tolerance",
					path, c.name, sender.end-c.end, c.link, linkTolerance)
			}
		}
	}
	return nil
}
