package experiments

import (
	"fmt"

	"convmeter/internal/core"
	"convmeter/internal/dagrun"
	"convmeter/internal/faults"
)

// CodeFingerprint tags the semantics of the experiment DAG's nodes and
// is folded into every node fingerprint. Bump the version whenever a
// node's meaning changes — sweep shapes, fitting procedure, rendering —
// so manifests committed under the old semantics fail closed instead of
// resurfacing as current results.
const CodeFingerprint = "convmeter/experiments@v1"

// The run-directory layout: cmd/experiments -run-dir writes every
// artefact of a run under these fixed names, and cmd/obscheck validates
// whatever it finds there.
const (
	ReportFile   = "report.txt"
	CSVDir       = "csv"           // one <series>.csv per figure data series
	MetricsFile  = "metrics.prom"  // Prometheus text exposition
	TraceFile    = "trace.json"    // Chrome trace-event JSON
	DriftFile    = "drift.json"    // drift-monitor snapshot
	CritpathFile = "critpath.json" // critical-path attribution report
	DagFile      = "dag.json"      // DAG audit trail
	OpsAddrFile  = "ops-addr"      // the ops server's bound address
	ManifestsDir = "manifests"     // one <node>.json manifest per committed node
)

// DagConfig parameterises a durable experiment run on top of the
// experiment Config.
type DagConfig struct {
	// Dir is the run's manifest directory; empty disables durability
	// (the DAG still executes, with parallelism, in memory).
	Dir string
	// Workers bounds the executor's worker pool; <= 0 means 2.
	Workers int
	// Faults carries the orchestrator-level crash schedule
	// (Profile.NodeCrashes). It is deliberately separate from the
	// experiments' own transport-fault injector: a kill -9 is an
	// environment event, not part of an experiment's identity, so it
	// must not move node fingerprints.
	Faults *faults.Injector
}

// SuiteReport is the terminal report node's output: every experiment
// result in the paper's order plus a rendered run summary.
type SuiteReport struct {
	Results []*Result `json:"results"`
	Text    string    `json:"text"`
}

// nodeID maps an experiment id to the DAG node that produces its
// Result. table1 is staged — its evaluation node is "lomo", fed by
// "fit" — while every other experiment runs whole as "exp:<id>".
func nodeID(id string) string {
	if id == "table1" {
		return "lomo"
	}
	return "exp:" + id
}

// nodeConfig renders the configuration fingerprint component shared by
// every node: the settings that shape outputs. Faults seed/profile are
// bound by the executor itself (dagrun.Config), not here.
func nodeConfig(stage string, cfg Config) string {
	return fmt.Sprintf("stage=%s seed=%d quick=%t", stage, cfg.Seed, cfg.Quick)
}

// BuildDAG assembles the experiment pipeline for the given ids:
//
//	fit ──▶ lomo ─┐
//	exp:fig8 ─┬─▶ figures ─┬─▶ report
//	exp:fig9 ─┘            │
//	exp:<id> ──────────────┘
//
// table1 expands into the staged fit→lomo pair; fig8+fig9 (when both
// are requested) feed a figures node that bundles their data series;
// and a terminal report node — depending on everything — assembles the
// ordered result list. Independent experiments are roots and run in
// parallel on the executor's pool.
func BuildDAG(ids []string, cfg Config) ([]dagrun.Node, error) {
	known := make(map[string]Runner, len(Runners()))
	for _, r := range Runners() {
		known[r.ID] = r
	}
	requested := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := known[id]; !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		if requested[id] {
			return nil, fmt.Errorf("experiments: experiment %q requested twice", id)
		}
		requested[id] = true
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: empty experiment list")
	}

	var nodes []dagrun.Node
	var reportDeps []string
	for _, r := range Runners() { // paper order, deterministic
		if !requested[r.ID] {
			continue
		}
		if r.ID == "table1" {
			nodes = append(nodes,
				dagrun.Node{
					ID:     "fit",
					Config: nodeConfig("fit", cfg),
					Run: func(in dagrun.Inputs) (any, error) {
						return table1Samples(cfg)
					},
				},
				dagrun.Node{
					ID:     "lomo",
					Deps:   []string{"fit"},
					Config: nodeConfig("lomo", cfg),
					Run: func(in dagrun.Inputs) (any, error) {
						var samples map[string][]core.Sample
						if err := in.Decode("fit", &samples); err != nil {
							return nil, err
						}
						return runOne(Runner{ID: "table1", Desc: known["table1"].Desc, Run: func(c Config) (*Result, error) {
							return table1FromSamples(c, samples)
						}}, cfg)
					},
				})
		} else {
			r := r
			nodes = append(nodes, dagrun.Node{
				ID:     nodeID(r.ID),
				Config: nodeConfig(r.ID, cfg),
				Run: func(in dagrun.Inputs) (any, error) {
					return runOne(r, cfg)
				},
			})
		}
		reportDeps = append(reportDeps, nodeID(r.ID))
	}

	if requested["fig8"] && requested["fig9"] {
		nodes = append(nodes, dagrun.Node{
			ID:     "figures",
			Deps:   []string{nodeID("fig8"), nodeID("fig9")},
			Config: nodeConfig("figures", cfg),
			Run: func(in dagrun.Inputs) (any, error) {
				bundle := map[string]string{}
				for _, dep := range []string{"fig8", "fig9"} {
					var res Result
					if err := in.Decode(nodeID(dep), &res); err != nil {
						return nil, err
					}
					for _, name := range sortedKeys(res.Series) {
						bundle[dep+"/"+name] = res.Series[name]
					}
				}
				return bundle, nil
			},
		})
		reportDeps = append(reportDeps, "figures")
	}

	resultDeps := append([]string(nil), reportDeps...)
	nodes = append(nodes, dagrun.Node{
		ID:     "report",
		Deps:   resultDeps,
		Config: nodeConfig("report", cfg),
		Run: func(in dagrun.Inputs) (any, error) {
			suite := &SuiteReport{}
			var rows [][]string
			for _, r := range Runners() {
				if !requested[r.ID] {
					continue
				}
				var res Result
				if err := in.Decode(nodeID(r.ID), &res); err != nil {
					return nil, err
				}
				suite.Results = append(suite.Results, &res)
				rows = append(rows, []string{res.ID, fmt.Sprintf("%d", len(res.Stats)), fmt.Sprintf("%d", len(res.Series))})
			}
			suite.Text = table([]string{"Experiment", "Stats", "Series"}, rows)
			return suite, nil
		},
	})
	return nodes, nil
}

// NewDAGRunner builds the executor for the given experiments. The
// returned runner is ready to Execute and can be registered on the ops
// server's /dag endpoint beforehand, so the audit trail is queryable
// while the run is live.
func NewDAGRunner(ids []string, cfg Config, dcfg DagConfig) (*dagrun.Runner, error) {
	nodes, err := BuildDAG(ids, cfg)
	if err != nil {
		return nil, err
	}
	return dagrun.New(dagrun.Config{
		Dir:           dcfg.Dir,
		Code:          CodeFingerprint,
		FaultsSeed:    faultsSeed(cfg),
		FaultsProfile: profileName(cfg),
		Workers:       dcfg.Workers,
		Obs:           cfg.Obs,
		Faults:        dcfg.Faults,
	}, nodes)
}

// CollectDAGResults decodes the terminal report node's output after a
// completed Execute.
func CollectDAGResults(r *dagrun.Runner) ([]*Result, error) {
	raw, ok := r.Output("report")
	if !ok {
		return nil, fmt.Errorf("experiments: DAG run has no report output")
	}
	var suite SuiteReport
	if err := dagrun.DecodeOutput(raw, &suite); err != nil {
		return nil, err
	}
	return suite.Results, nil
}

// RunDAG is the one-call path: build the DAG, execute it, collect the
// ordered results. The dagrun.Report is returned even on failure so
// callers can surface blame.
func RunDAG(ids []string, cfg Config, dcfg DagConfig) ([]*Result, *dagrun.Report, error) {
	r, err := NewDAGRunner(ids, cfg, dcfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := r.Execute()
	if err != nil {
		return nil, rep, err
	}
	results, err := CollectDAGResults(r)
	if err != nil {
		return nil, rep, err
	}
	return results, rep, nil
}
