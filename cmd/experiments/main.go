// Command experiments reproduces the paper's evaluation: every table and
// figure, end to end (dataset generation → fitting → leave-one-model-out
// evaluation → rendered tables). Its full-scale output is recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1 -seed 7
//	experiments -run fig8 -quick
//
// Runs execute as a dependency DAG (independent experiments in
// parallel). With -run-dir every artefact of the run lands in one
// directory under a fixed name — report.txt, csv/<series>.csv,
// metrics.prom, trace.json, drift.json, critpath.json, dag.json,
// ops-addr — and every completed node commits a fail-close
// manifest under manifests/, so a killed run resumes from its last
// committed node:
//
//	experiments -run table1 -run-dir run1           # killed midway…
//	experiments -run table1 -run-dir run1           # …resumes here
//	obscheck run1                                   # validate the artefacts
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"convmeter"
	"convmeter/internal/driftwatch"
	"convmeter/internal/experiments"
	"convmeter/internal/faults"
	"convmeter/internal/obs"
	"convmeter/internal/obs/critpath"
	"convmeter/internal/obs/ops"
)

func main() {
	opts := options{}
	flag.StringVar(&opts.id, "run", "all", "experiment id (fig2, table1, table2, table3single, fig6, table3multi, fig8, fig9, ablation, extvit, extedge, extpipeline, extreal, exttrainreal, exttrainfaults, extstrong) or 'all'")
	flag.Int64Var(&opts.seed, "seed", 1, "simulator/fitting seed")
	flag.BoolVar(&opts.quick, "quick", false, "use reduced sweeps (for smoke runs)")
	flag.Int64Var(&opts.faultsSeed, "faults-seed", 0, "fault-injection schedule seed for exttrainfaults (0 = use -seed); the same seed reproduces the identical fault schedule")
	flag.StringVar(&opts.faultsProfile, "faults-profile", "", "fault profile for exttrainfaults: none, light, heavy, chaos or slowdown (default chaos)")
	flag.StringVar(&opts.runDir, "run-dir", "", "run directory: the report, CSV series, metrics, trace, drift, critical-path and DAG artefacts land here under fixed names, and every completed DAG node commits a manifest under manifests/ — a re-run over the same directory resumes fail-close from fingerprint-matching manifests")
	flag.StringVar(&opts.opsAddr, "ops-addr", "", "serve the live ops endpoints (/metrics, /healthz, /readyz, /trace, /drift, /critpath, /dag, /debug/pprof) on this address (e.g. localhost:6060) while experiments run; off by default")
	flag.BoolVar(&opts.driftRefit, "drift-refit", false, "on a drift event, recalibrate the affected stream onto the new regime instead of staying latched")
	flag.IntVar(&opts.dagWorkers, "dag-workers", 2, "worker pool size for independent DAG nodes")
	flag.StringVar(&opts.dagCrash, "dag-crash", "", "inject a process crash at node@point (point: boundary or mid) for crash-resume testing; the run dies with exit code 3 and resumes via -run-dir")
	flag.Parse()
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, convmeter.ErrDagCrashed) {
			// Distinguish an injected kill (resumable) from a real failure:
			// dag-smoke asserts on this exit code.
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// options carries the full flag surface of one invocation.
type options struct {
	id            string
	seed          int64
	quick         bool
	faultsSeed    int64
	faultsProfile string
	runDir        string
	opsAddr       string
	driftRefit    bool
	dagWorkers    int
	dagCrash      string
}

// dagFaults builds the orchestrator-level crash injector for -dag-crash.
func dagFaults(opts options, bundle *obs.Obs) (*faults.Injector, error) {
	if opts.dagCrash == "" {
		return nil, nil
	}
	node, point, ok := strings.Cut(opts.dagCrash, "@")
	if !ok || node == "" {
		return nil, fmt.Errorf("bad -dag-crash %q, want node@point (e.g. lomo@boundary)", opts.dagCrash)
	}
	seed := opts.faultsSeed
	if seed == 0 {
		seed = opts.seed
	}
	prof := faults.Profile{NodeCrashes: map[string]string{node: point}}
	return faults.New(seed, prof, bundle)
}

// writeArtefact creates path and streams write into it, surfacing the
// first error — Close included, since a truncated artefact parses as a
// lie.
func writeArtefact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(opts options) (err error) {
	cfg := convmeter.ExperimentConfig{
		Seed: opts.seed, Quick: opts.quick,
		FaultsSeed: opts.faultsSeed, FaultsProfile: opts.faultsProfile,
	}
	in := func(name string) string { return filepath.Join(opts.runDir, name) }
	manifests := ""
	if opts.runDir != "" {
		if err := os.MkdirAll(opts.runDir, 0o755); err != nil {
			return err
		}
		manifests = in(experiments.ManifestsDir)
	}
	// One rule decides whether the run is observed: a run directory to
	// hold the artefacts, or a live ops server to serve them. Observed
	// runs carry the full telemetry stack — registry and tracer, drift
	// monitor and critical-path tracker.
	var bundle *obs.Obs
	var mon *driftwatch.Monitor
	var crit *critpath.Tracker
	if opts.runDir != "" || opts.opsAddr != "" {
		bundle = obs.New()
		cfg.Obs = bundle
		dcfg := driftwatch.Config{Obs: bundle}
		if opts.driftRefit {
			dcfg.OnDrift = func(ev driftwatch.Event) {
				fmt.Fprintf(os.Stderr, "experiments: drift event #%d on %s/%s, recalibrating\n",
					ev.Events, ev.Model, ev.Phase)
				ev.Stream.Recalibrate()
			}
		}
		mon = driftwatch.New(dcfg)
		cfg.Drift = mon
		crit = critpath.NewTracker(bundle)
		cfg.Crit = crit
	}
	// The run itself is a DAG: independent experiments execute in
	// parallel on a bounded pool, and with a run directory every
	// completed node commits a fail-close manifest, making the run
	// crash-resumable.
	ids := []string{opts.id}
	if opts.id == "all" {
		ids = convmeter.ExperimentIDs()
	}
	inj, err := dagFaults(opts, bundle)
	if err != nil {
		return err
	}
	runner, err := convmeter.NewExperimentsDAG(ids, cfg, convmeter.ExperimentsDagConfig{
		Dir: manifests, Workers: opts.dagWorkers, Faults: inj,
	})
	if err != nil {
		return err
	}
	if opts.opsAddr != "" {
		// serr, not err: the deferred Close below must report into the
		// named result, not a shadow scoped to this block.
		srv, serr := ops.Start(ops.Config{
			Addr: opts.opsAddr, Obs: bundle, Drift: mon, Crit: crit, Dag: runner,
		})
		if serr != nil {
			return serr
		}
		defer func() {
			if cerr := srv.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		fmt.Fprintf(os.Stderr, "experiments: ops server on http://%s\n", srv.Addr())
		if opts.runDir != "" {
			if err := os.WriteFile(in(experiments.OpsAddrFile), []byte(srv.Addr()+"\n"), 0o644); err != nil {
				return err
			}
		}
	}
	rep, execErr := runner.Execute()
	if opts.runDir != "" {
		// The audit trail is written even — especially — when the run
		// died: it records which node was killed and what survived.
		if err := writeArtefact(in(experiments.DagFile), runner.WriteJSON); err != nil {
			return err
		}
	}
	if execErr != nil {
		if rep != nil && rep.Crashed != "" {
			fmt.Fprintf(os.Stderr, "experiments: run killed at %s; re-run with the same -run-dir to resume\n", rep.Crashed)
		}
		return execErr
	}
	if rep.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: resumed %d node(s) from manifests in %s\n", rep.Resumed, manifests)
	}
	results, err := convmeter.CollectExperimentsDAG(runner)
	if err != nil {
		return err
	}
	sinks := []io.Writer{os.Stdout}
	if opts.runDir != "" {
		if err := bundle.Export(in(experiments.MetricsFile), in(experiments.TraceFile)); err != nil {
			return err
		}
		if err := writeArtefact(in(experiments.DriftFile), mon.WriteJSON); err != nil {
			return err
		}
		if err := writeArtefact(in(experiments.CritpathFile), crit.WriteJSON); err != nil {
			return err
		}
		f, ferr := os.Create(in(experiments.ReportFile))
		if ferr != nil {
			return ferr
		}
		// A report that silently lost its tail is worse than an error:
		// surface the close failure unless something already failed.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		sinks = append(sinks, f)
	}
	w := io.MultiWriter(sinks...)
	rule := strings.Repeat("=", 62)
	for _, res := range results {
		if _, err := fmt.Fprintf(w, "%s\n%s\n%s\n", rule, res.Title, rule); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, res.Text); err != nil {
			return err
		}
		if opts.runDir == "" || len(res.Series) == 0 {
			continue
		}
		if err := os.MkdirAll(in(experiments.CSVDir), 0o755); err != nil {
			return err
		}
		for name, doc := range res.Series {
			path := filepath.Join(in(experiments.CSVDir), name+".csv")
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", path)
		}
	}
	return nil
}
