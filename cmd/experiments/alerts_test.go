package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// alertsDoc mirrors the /alerts and alerts.json layout.
type alertsDoc struct {
	Schema string `json:"schema"`
	Alerts []struct {
		Rule     string  `json:"rule"`
		Severity string  `json:"severity"`
		State    string  `json:"state"`
		Value    float64 `json:"value"`
	} `json:"alerts"`
	Transitions []struct {
		Rule string `json:"rule"`
		To   string `json:"to"`
	} `json:"transitions"`
}

// alertState returns the named rule's state in the report, or "".
func (d *alertsDoc) alertState(rule string) string {
	for _, a := range d.Alerts {
		if a.Rule == rule {
			return a.State
		}
	}
	return ""
}

// everFired reports whether the named rule fired in the history.
func (d *alertsDoc) everFired(rule string) bool {
	for _, tr := range d.Transitions {
		if tr.Rule == rule && tr.To == "firing" {
			return true
		}
	}
	return false
}

// waitForAddr polls for the ops-addr file the run writes once its
// listener is up.
func waitForAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil {
			return strings.TrimSpace(string(data))
		}
		if time.Now().After(deadline) {
			t.Fatal("ops address file never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunAlertsSlowdown is the alerting acceptance test: a chaos run
// with a slowdown profile, a compressed SLO timebase and a fast sample
// cadence must burn the drift error budget, fire the critical
// drift-burn-rate rule, flip /readyz to 503 while it fires, report the
// incident on /alerts and /api/query, and export an alerts.json report
// that records the fire.
func TestRunAlertsSlowdown(t *testing.T) {
	dir := t.TempDir()
	addrPath := filepath.Join(dir, "ops-addr")
	alertsPath := filepath.Join(dir, "alerts.json")
	opts := options{
		id: "exttrainfaults", seed: 1, quick: true,
		faultsSeed: 7, faultsProfile: "slowdown",
		runDir:         dir,
		opsAddr:        "127.0.0.1:0",
		alertsScale:    0.005,
		sampleInterval: 25 * time.Millisecond,
	}
	runErr := make(chan error, 1)
	go func() { runErr <- run(opts) }()
	addr := waitForAddr(t, addrPath)

	// Poll the live surfaces until the critical alert fires: /readyz
	// must gate to 503, /alerts must report the rule firing, and
	// /api/query must serve a positive drift-event rate. The server
	// shuts down when run() returns, so connection errors end the poll;
	// the exported artefact below is then the authoritative check.
	sawGate, sawAlert, sawRate := false, false, false
	for !(sawGate && sawAlert && sawRate) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			break
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable &&
			strings.Contains(string(body), "critical alert") {
			sawGate = true
		}
		if resp, err = http.Get("http://" + addr + "/alerts"); err == nil {
			var doc alertsDoc
			err := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err == nil && doc.alertState("drift-burn-rate") == "firing" {
				sawAlert = true
			}
		}
		if resp, err = http.Get("http://" + addr +
			"/api/query?op=rate&series=convmeter_drift_events_total&window=2s"); err == nil {
			var q struct {
				OK   bool    `json:"ok"`
				Rate float64 `json:"rate_per_second"`
			}
			err := json.NewDecoder(resp.Body).Decode(&q)
			resp.Body.Close()
			if err == nil && q.OK && q.Rate > 0 {
				sawRate = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if !sawGate || !sawAlert || !sawRate {
		t.Errorf("live surfaces missed the incident: readyz-gate=%t alerts=%t query-rate=%t",
			sawGate, sawAlert, sawRate)
	}

	data, err := os.ReadFile(alertsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc alertsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "convmeter/alerts/v1" {
		t.Fatalf("alerts artefact schema = %q", doc.Schema)
	}
	if !doc.everFired("drift-burn-rate") {
		t.Fatalf("slowdown run never fired drift-burn-rate: %+v", doc)
	}
	if err := checkAlertsReport(data); err != nil {
		t.Fatalf("exported report malformed: %v", err)
	}
}

// TestRunAlertsCleanRun: the identical run under the none profile must
// keep every rule inactive — the alerting false-positive guard at the
// CLI level.
func TestRunAlertsCleanRun(t *testing.T) {
	dir := t.TempDir()
	alertsPath := filepath.Join(dir, "alerts.json")
	opts := options{
		id: "exttrainfaults", seed: 1, quick: true,
		faultsSeed: 7, faultsProfile: "none",
		runDir:         dir,
		alertsScale:    0.005,
		sampleInterval: 25 * time.Millisecond,
	}
	if err := run(opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(alertsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc alertsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Transitions) != 0 {
		t.Fatalf("clean run recorded %d alert transition(s): %+v", len(doc.Transitions), doc.Transitions)
	}
	for _, a := range doc.Alerts {
		if a.State != "inactive" {
			t.Fatalf("clean run left rule %s %s", a.Rule, a.State)
		}
	}
}

// checkAlertsReport re-validates the artefact with the same invariants
// cmd/obscheck enforces on alerts.json: legal lifecycle edges in monotone
// order, no resolve before a fire.
func checkAlertsReport(data []byte) error {
	var doc struct {
		Transitions []struct {
			Rule string  `json:"rule"`
			From string  `json:"from"`
			To   string  `json:"to"`
			T    float64 `json:"t_seconds"`
		} `json:"transitions"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	last := map[string]string{}
	prevT := -1.0
	for _, tr := range doc.Transitions {
		if tr.T < prevT {
			return errNonMonotone
		}
		prevT = tr.T
		from := last[tr.Rule]
		if from == "" {
			from = "inactive"
		}
		if tr.From != from || (tr.To == "resolved" && tr.From != "firing") {
			return errBadEdge
		}
		last[tr.Rule] = tr.To
	}
	return nil
}

var (
	errNonMonotone = jsonError("transition timestamps not monotone")
	errBadEdge     = jsonError("illegal lifecycle edge")
)

type jsonError string

func (e jsonError) Error() string { return string(e) }
