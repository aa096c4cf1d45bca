package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"convmeter/internal/dagrun"
	"convmeter/internal/dagrun/manifest"
	"convmeter/internal/experiments"
)

// writeDrift drops a drift snapshot fixture and returns its path.
func writeDrift(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "drift.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckDrift(t *testing.T) {
	drifting := `{"streams":[{"model":"trainreal","phase":"iter","state":"drifting","pairs":10,"events":2}],"events_total":2}`
	clean := `{"streams":[{"model":"trainreal","phase":"iter","state":"ok","pairs":10,"events":0}],"events_total":0}`
	empty := `{"streams":[],"events_total":0}`

	cases := []struct {
		name                      string
		doc                       string
		requireDrift, forbidDrift bool
		wantErr                   bool
	}{
		{"drifting-plain", drifting, false, false, false},
		{"drifting-required", drifting, true, false, false},
		{"drifting-forbidden", drifting, false, true, true},
		{"clean-plain", clean, false, false, false},
		{"clean-required", clean, true, false, true},
		{"clean-forbidden", clean, false, true, false},
		{"empty-forbidden", empty, false, true, false},
		{"empty-required", empty, true, false, true},
		{"bad-json", `{"streams":`, false, false, true},
		{"missing-total", `{"streams":[]}`, false, false, true},
		{"unknown-state", `{"streams":[{"model":"a","phase":"fwd","state":"panic","pairs":1,"events":0}],"events_total":0}`, false, false, true},
		{"no-model", `{"streams":[{"phase":"fwd","state":"ok","pairs":1,"events":0}],"events_total":0}`, false, false, true},
		{"total-mismatch", `{"streams":[{"model":"a","phase":"fwd","state":"ok","pairs":1,"events":1}],"events_total":3}`, false, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkDrift(writeDrift(t, tc.doc), tc.requireDrift, tc.forbidDrift)
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkDrift err = %v, wantErr = %t", err, tc.wantErr)
			}
		})
	}
}

// realManifestDir runs a small DAG with a durable directory so the
// fixture is exactly what experiments -run-dir commits, not a
// hand-rolled imitation that could drift from the writer.
func realManifestDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	realDagRun(t, dir)
	return dir
}

// realDagRun executes a two-node fit → report DAG committing its
// manifests into dir and returns the finished runner.
func realDagRun(t *testing.T, dir string) *dagrun.Runner {
	t.Helper()
	r, err := dagrun.New(dagrun.Config{Dir: dir, Code: "obscheck-test@v1", Workers: 2}, []dagrun.Node{
		{ID: "fit", Run: func(dagrun.Inputs) (any, error) { return map[string]float64{"coef": 1.5}, nil }},
		{ID: "report", Deps: []string{"fit"}, Run: func(in dagrun.Inputs) (any, error) {
			var fit map[string]float64
			if err := in.Decode("fit", &fit); err != nil {
				return nil, err
			}
			return "coef " + "ok", nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	return r
}

// mutateManifest rewrites one top-level field of dir/node.json. With
// reseal it then restamps the content hash over the mutated fields, so
// the defect must be caught by a check other than the hash comparison.
func mutateManifest(t *testing.T, dir, node string, reseal bool, mutate func(map[string]json.RawMessage)) {
	t.Helper()
	path := filepath.Join(dir, node+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	mutate(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if reseal {
		var m manifest.Manifest
		if err := json.Unmarshal(out, &m); err != nil {
			t.Fatal(err)
		}
		doc["hash"], _ = json.Marshal(manifest.HashOf(&m))
		if out, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckManifests(t *testing.T) {
	t.Run("real-run-passes", func(t *testing.T) {
		if err := checkManifests(realManifestDir(t)); err != nil {
			t.Fatalf("real dag run rejected: %v", err)
		}
	})
	t.Run("empty-dir", func(t *testing.T) {
		if err := checkManifests(t.TempDir()); err == nil {
			t.Fatal("empty directory accepted; a run that committed nothing has nothing to audit")
		}
	})
	t.Run("missing-dir", func(t *testing.T) {
		if err := checkManifests(filepath.Join(t.TempDir(), "nope")); err == nil {
			t.Fatal("nonexistent directory accepted")
		}
	})
	t.Run("not-json", func(t *testing.T) {
		dir := realManifestDir(t)
		if err := os.WriteFile(filepath.Join(dir, "fit.json"), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkManifests(dir); err == nil {
			t.Fatal("truncated manifest accepted")
		}
	})
	// Every mutation but upper-hash is resealed: each defect must be
	// caught by its own check, not by the content-hash comparison.
	mutations := []struct {
		name   string
		node   string
		mutate func(map[string]json.RawMessage)
		want   string
	}{
		{"wrong-schema", "fit", func(d map[string]json.RawMessage) { d["schema"] = json.RawMessage(`"v0"`) }, "schema"},
		{"node-mismatch", "fit", func(d map[string]json.RawMessage) { d["node"] = json.RawMessage(`"other"`) }, "stem"},
		{"short-fingerprint", "fit", func(d map[string]json.RawMessage) { d["fingerprint"] = json.RawMessage(`"abc"`) }, "fingerprint"},
		{"upper-hash", "fit", func(d map[string]json.RawMessage) {
			d["hash"] = json.RawMessage(`"` + strings.Repeat("A", 64) + `"`)
		}, "hash"},
		{"zero-attempt", "fit", func(d map[string]json.RawMessage) { d["attempt"] = json.RawMessage(`0`) }, "attempt"},
		{"no-output", "fit", func(d map[string]json.RawMessage) { delete(d, "output") }, "output"},
		{"stale-input-hash", "report", func(d map[string]json.RawMessage) {
			d["inputs"] = json.RawMessage(`{"fit":"` + strings.Repeat("0", 64) + `"}`)
		}, "stale or tampered"},
		{"dangling-input", "report", func(d map[string]json.RawMessage) {
			d["inputs"] = json.RawMessage(`{"ghost":"` + strings.Repeat("0", 64) + `"}`)
		}, "chain is broken"},
		{"malformed-input-hash", "report", func(d map[string]json.RawMessage) {
			d["inputs"] = json.RawMessage(`{"fit":"xyz"}`)
		}, "input hash"},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			dir := realManifestDir(t)
			mutateManifest(t, dir, tc.node, tc.name != "upper-hash", tc.mutate)
			err := checkManifests(dir)
			if err == nil {
				t.Fatal("mutated manifest accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	t.Run("tampered-output", func(t *testing.T) {
		// A changed output under the stored hash: dagrun fails closed and
		// re-runs such a node, so the validator must reject it too.
		dir := realManifestDir(t)
		mutateManifest(t, dir, "fit", false, func(d map[string]json.RawMessage) {
			d["output"] = json.RawMessage(`{"coef":3}`)
		})
		err := checkManifests(dir)
		if err == nil || !strings.Contains(err.Error(), "tampered") {
			t.Fatalf("tampered output not rejected: %v", err)
		}
	})
	t.Run("cycle", func(t *testing.T) {
		dir := realManifestDir(t)
		// Point fit's inputs back at report, matching report's committed
		// hash so only the cycle check can catch it.
		var rep struct {
			Hash string `json:"hash"`
		}
		data, err := os.ReadFile(filepath.Join(dir, "report.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		mutateManifest(t, dir, "fit", true, func(d map[string]json.RawMessage) {
			d["inputs"] = json.RawMessage(`{"report":"` + rep.Hash + `"}`)
		})
		err = checkManifests(dir)
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("cycle not detected: %v", err)
		}
	})
}

// writeRunDir lays out a run directory the way experiments -run-dir
// does: report, one CSV series, committed manifests and the DAG audit
// trail.
func writeRunDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	r := realDagRun(t, filepath.Join(dir, experiments.ManifestsDir))
	files := map[string]string{
		experiments.ReportFile:                          "== fixture ==\ncoef ok\n",
		filepath.Join(experiments.CSVDir, "series.csv"): "x,y\n1,2\n",
	}
	var dag strings.Builder
	if err := r.WriteJSON(&dag); err != nil {
		t.Fatal(err)
	}
	files[experiments.DagFile] = dag.String()
	for name, doc := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCheckRunDir(t *testing.T) {
	none := assertions{requireBlame: -1}
	t.Run("real-layout-passes", func(t *testing.T) {
		checked, err := checkRunDir(writeRunDir(t), none)
		if err != nil {
			t.Fatal(err)
		}
		if len(checked) != 4 {
			t.Fatalf("checked %v, want report, csv, dag and manifests", checked)
		}
	})
	t.Run("tampered-output", func(t *testing.T) {
		dir := writeRunDir(t)
		mutateManifest(t, filepath.Join(dir, experiments.ManifestsDir), "fit", false, func(d map[string]json.RawMessage) {
			d["output"] = json.RawMessage(`{"coef":3}`)
		})
		if _, err := checkRunDir(dir, none); err == nil || !strings.Contains(err.Error(), "tampered") {
			t.Fatalf("tampered manifest output accepted: %v", err)
		}
	})
	t.Run("dag-hash-mismatch", func(t *testing.T) {
		dir := writeRunDir(t)
		path := filepath.Join(dir, experiments.DagFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep dagrun.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		rep.Nodes[0].Manifest = strings.Repeat("0", 64)
		if data, err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := checkRunDir(dir, none); err == nil || !strings.Contains(err.Error(), "committed manifest") {
			t.Fatalf("audit trail disagreeing with the manifests accepted: %v", err)
		}
	})
	t.Run("ragged-csv", func(t *testing.T) {
		dir := writeRunDir(t)
		if err := os.WriteFile(filepath.Join(dir, experiments.CSVDir, "bad.csv"), []byte("x,y\n1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := checkRunDir(dir, none); err == nil {
			t.Fatal("ragged CSV series accepted")
		}
	})
	t.Run("assertion-needs-artefact", func(t *testing.T) {
		a := none
		a.requireFaults = true
		if _, err := checkRunDir(writeRunDir(t), a); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Fatalf("-require-faults without metrics.prom passed: %v", err)
		}
	})
	t.Run("empty-dir", func(t *testing.T) {
		if _, err := checkRunDir(t.TempDir(), none); err == nil {
			t.Fatal("directory without artefacts accepted")
		}
	})
}

func TestCheckBench(t *testing.T) {
	good := `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","goos":"linux","goarch":"amd64","benchtime":"1x",
		"benchmarks":[
			{"name":"BenchmarkA-8","iterations":100,"ns_per_op":123.5,"bytes_per_op":0,"allocs_per_op":0},
			{"name":"BenchmarkB-8","iterations":1,"ns_per_op":5000,"bytes_per_op":64,"allocs_per_op":2,"mb_per_s":12.5}]}`
	cases := []struct {
		name    string
		doc     string
		wantErr bool
	}{
		{"good", good, false},
		{"bad-json", `{"schema":`, true},
		{"wrong-schema", `{"schema":"v0","go":"go1.24.0","benchmarks":[{"name":"BenchmarkA","iterations":1,"ns_per_op":1}]}`, true},
		{"no-go-stamp", `{"schema":"convmeter/bench-snapshot/v1","benchmarks":[{"name":"BenchmarkA","iterations":1,"ns_per_op":1}]}`, true},
		{"empty", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[]}`, true},
		{"unsorted", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkB","iterations":1,"ns_per_op":1},{"name":"BenchmarkA","iterations":1,"ns_per_op":1}]}`, true},
		{"duplicate", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":1,"ns_per_op":1},{"name":"BenchmarkA","iterations":1,"ns_per_op":1}]}`, true},
		{"zero-iterations", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":0,"ns_per_op":1}]}`, true},
		{"missing-ns", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":1}]}`, true},
		{"zero-ns", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":1,"ns_per_op":0}]}`, true},
		{"negative-allocs", `{"schema":"convmeter/bench-snapshot/v1","go":"go1.24.0","benchmarks":[
			{"name":"BenchmarkA","iterations":1,"ns_per_op":1,"allocs_per_op":-1}]}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bench.json")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			err := checkBench(path)
			if (err != nil) != tc.wantErr {
				t.Fatalf("checkBench err = %v, wantErr = %t", err, tc.wantErr)
			}
		})
	}
}
