package main

import (
	"fmt"
	"math/rand"
	"time"

	"convmeter/internal/bench"
	"convmeter/internal/core"
	"convmeter/internal/experiments"
	"convmeter/internal/metrics"
	"convmeter/internal/nas"
	"convmeter/internal/obs"
)

// experimentIDs are the nine simulated paper experiments, in the order
// cmd/experiments runs them.
var experimentIDs = []string{"fig2", "table1", "table2", "table3single", "fig6", "table3multi", "fig8", "fig9", "ablation"}

// dagWorkers is the experiment DAG's worker pool, cmd/experiments'
// default.
const dagWorkers = 2

// The NAS search: a MobileNet-style space at 128×128 scored for batch
// 64, within a budget set from the fitted model itself so that about
// half of random candidates are feasible.
const (
	nasImage          = 128
	nasBatch          = 64
	nasPopulation     = 24
	nasGenerations    = 12
	nasBudgetProbes   = 32
	nasSearchesPerRep = 16
	candidatesPerRep  = 16 // traced runs: candidates built and measured one by one
)

// runExperiments runs the nine experiments through the DAG and returns
// their Stats by id.
func runExperiments(seed int64) (map[string]map[string]float64, error) {
	res, _, err := experiments.RunDAG(experimentIDs, experiments.Config{Seed: seed}, experiments.DagConfig{Workers: dagWorkers})
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]float64{}
	for _, r := range res {
		out[r.ID] = r.Stats
	}
	return out, nil
}

// nasSetup is a fitted predicted evaluator and its latency budget.
type nasSetup struct {
	eval   nas.Evaluator
	budget float64
	fitS   float64 // core.FitInference time
}

// newNASSetup fits the block-level inference model on the simulated
// block scenario and derives the latency budget: the median predicted
// latency of nasBudgetProbes random candidates.
func newNASSetup(seed int64) (*nasSetup, error) {
	samples, err := bench.CollectBlocks(bench.DefaultBlockScenario(seed))
	if err != nil {
		return nil, err
	}
	t := time.Now()
	m, err := core.FitInference(samples)
	if err != nil {
		return nil, err
	}
	ns := &nasSetup{eval: nas.PredictedEvaluator(m, nasBatch), fitS: time.Since(t).Seconds()}
	rng := rand.New(rand.NewSource(seed))
	lats := make([]float64, 0, nasBudgetProbes)
	for i := 0; i < nasBudgetProbes; i++ {
		g, err := nas.RandomCandidate(rng).Build(nasImage)
		if err != nil {
			return nil, err
		}
		met, err := metrics.FromGraph(g)
		if err != nil {
			return nil, err
		}
		lat, err := ns.eval.Latency(g, met)
		if err != nil {
			return nil, err
		}
		lats = append(lats, lat)
	}
	ns.budget = median(lats)
	return ns, nil
}

func (ns *nasSetup) search(seed int64) (nasOutcome, error) {
	res, err := nas.Search(ns.eval, nasImage, ns.budget, nasPopulation, nasGenerations, seed)
	if err != nil {
		return nasOutcome{}, err
	}
	if !(res.BestLatency <= ns.budget) {
		return nasOutcome{}, errCheck("nas best latency %v exceeds budget %v", res.BestLatency, ns.budget)
	}
	return nasOutcome{Best: res.Best.Choices, Evaluated: res.Evaluated, Feasible: res.Feasible}, nil
}

type analyticState struct {
	ref    *referenceData
	ns     *nasSetup
	seeds  []int64      // the searches of one pass, each with its own seed
	expect []nasOutcome // the warm-up outcomes, which every repeat must match
}

// setupAnalytic fits the NAS evaluator and makes one warm-up pass: the
// nine experiments and one round of searches. Searching from several
// seeds per pass keeps the evaluation rate from hinging on one search
// path.
func setupAnalytic(seed int64, ref *referenceData) (*analyticState, error) {
	ns, err := newNASSetup(seed)
	if err != nil {
		return nil, err
	}
	st := &analyticState{ref: ref, ns: ns}
	if _, _, err := st.dagPass(nil); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	for i := int64(0); i < nasSearchesPerRep; i++ {
		s := seed*nasSearchesPerRep + i
		out, err := ns.search(s)
		if err != nil {
			return nil, fmt.Errorf("warm-up search %d: %w", s, err)
		}
		st.seeds = append(st.seeds, s)
		st.expect = append(st.expect, out)
	}
	return st, nil
}

// dagPass runs the nine experiments once and checks every Stats map
// against the committed reference.
func (st *analyticState) dagPass(o *obs.Obs) (float64, map[string]float64, error) {
	sp := o.Start("experiments.RunDAG")
	t := time.Now()
	res, drep, err := experiments.RunDAG(experimentIDs, experiments.Config{Seed: st.ref.Experiments.Seed},
		experiments.DagConfig{Workers: dagWorkers})
	d := time.Since(t).Seconds()
	sp.End()
	if err != nil {
		return d, nil, err
	}
	if len(res) != len(experimentIDs) {
		return d, nil, errCheck("DAG returned %d results for %d experiments", len(res), len(experimentIDs))
	}
	for _, r := range res {
		if err := statsAgree(r.ID, r.Stats, st.ref.Experiments.Stats[r.ID]); err != nil {
			return d, nil, err
		}
	}
	nodes := map[string]float64{}
	for _, n := range drep.Nodes {
		nodes[n.ID] = n.Seconds
	}
	return d, nodes, nil
}

type analyticStats struct {
	passes     []float64
	nodeSecs   map[string][]float64 // per node id
	searches   int
	evals      int
	feasible   int
	searchSecs float64
	buildUS    []float64
	extractUS  []float64
	iters      [][2]time.Time // pass + searches intervals
	phase      *tracedPhase
}

// measure alternates one pass over the nine experiments with
// nasSearchesPerRep searches until the deadline; at least one of each
// runs. Traced, it also builds candidatesPerRep random candidates one by
// one to time graph building and metric extraction per candidate.
func (st *analyticState) measure(rep *report, dl deadline, o *obs.Obs, seed int64) *analyticStats {
	s := &analyticStats{nodeSecs: map[string][]float64{}}
	if o != nil {
		s.phase = startPhase(o)
	}
	rng := rand.New(rand.NewSource(seed))
	for first := true; first || !dl.passed(); first = false {
		iterStart := time.Now()
		d, nodes, err := st.dagPass(o)
		rep.op(err)
		if err == nil {
			s.passes = append(s.passes, d)
			for id, sec := range nodes {
				s.nodeSecs[id] = append(s.nodeSecs[id], sec)
			}
		}
		for i, seed := range st.seeds {
			sp := o.Start("nas.Search")
			t := time.Now()
			got, err := st.ns.search(seed)
			d := time.Since(t).Seconds()
			sp.End()
			if err == nil {
				err = outcomesEqual(got, st.expect[i])
			}
			rep.op(err)
			if err == nil {
				s.searches++
				s.evals += got.Evaluated
				s.feasible += got.Feasible
				s.searchSecs += d
			}
		}
		if o != nil {
			for i := 0; i < candidatesPerRep; i++ {
				rep.op(s.candidate(o, nas.RandomCandidate(rng)))
			}
		}
		s.iters = append(s.iters, [2]time.Time{iterStart, time.Now()})
	}
	if o != nil {
		s.phase.end()
	}
	return s
}

// candidate builds one NAS candidate and extracts its metrics, timing
// each under its own span.
func (s *analyticStats) candidate(o *obs.Obs, c nas.Candidate) error {
	sp := o.Start("graph.Build")
	t := time.Now()
	g, err := c.Build(nasImage)
	s.buildUS = append(s.buildUS, float64(time.Since(t).Microseconds()))
	sp.End()
	if err != nil {
		return err
	}
	sp = o.Start("metrics.FromGraph")
	t = time.Now()
	met, err := metrics.FromGraph(g)
	s.extractUS = append(s.extractUS, float64(time.Since(t).Microseconds()))
	sp.End()
	if err != nil {
		return err
	}
	if !(met.FLOPs > 0 && met.Weights > 0) {
		return errCheck("candidate metrics F=%v W=%v", met.FLOPs, met.Weights)
	}
	return nil
}

func runAnalytic(cfg runConfig) (*report, error) {
	rep := newReport("analytic")
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	st, setupS, err := timedSetup(setupRounds, func() (*analyticState, error) { return setupAnalytic(cfg.seed, ref) })
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	// The committed NAS reference is for a fixed seed; check it outside
	// the timed set-up.
	refNS := st.ns
	if cfg.seed != ref.NAS.Seed {
		if refNS, err = newNASSetup(ref.NAS.Seed); err != nil {
			return nil, err
		}
	}
	got, err := refNS.search(ref.NAS.Seed)
	if err == nil {
		err = outcomesEqual(got, ref.NAS.Outcome)
	}
	rep.op(err)

	if !cfg.trace {
		smp, err := startRSS()
		if err != nil {
			return nil, err
		}
		s := st.measure(rep, after(cfg.seconds), nil, cfg.seed)
		rep.setPeakRSS(smp.stop(), s.iters)
		rep.e2e["op_s_p50"] = median(s.passes)
		rep.e2e["work_per_s"] = ratioOrZero(float64(s.evals), s.searchSecs)
		analyticNotes(rep, s, setupS)
	} else {
		u := st.measure(rep, after(cfg.seconds/2), nil, cfg.seed)
		o := obs.New()
		rt0 := readRuntime()
		s := st.measure(rep, after(cfg.seconds/2), o, cfg.seed)
		runtimeDelta(rt0, readRuntime(), rep.layer)
		analyticLayers(rep, st, u, s)
		if err := traceOut(rep, cfg, s.phase.spans); err != nil {
			return nil, err
		}
		analyticNotes(rep, s, setupS)
	}
	return rep, nil
}

func analyticNotes(rep *report, s *analyticStats, setupS float64) {
	rep.notef("%-28s %10.3f s", "setup_s", setupS)
	rep.notef("%-28s %10.3f s   (median of n=%d passes)", "repro_sim_s", median(s.passes), len(s.passes))
	rep.notef("%-28s %10.0f 1/s (%d searches, %d evaluations)", "nas_evals_per_s",
		ratioOrZero(float64(s.evals), s.searchSecs), s.searches, s.evals)
}

// analyticLayers fills the per-layer metrics of a traced analytic run,
// per pass over the nine experiments.
func analyticLayers(rep *report, st *analyticState, u, s *analyticStats) {
	l := rep.layer
	for _, id := range experimentIDs {
		if id == "table1" {
			l["experiments.table1_s"] = mean(s.nodeSecs["fit"]) + mean(s.nodeSecs["lomo"])
			continue
		}
		l["experiments."+id+"_s"] = mean(s.nodeSecs["exp:"+id])
	}
	nodeTotal := 0.0
	for _, xs := range s.nodeSecs {
		nodeTotal += sum(xs)
	}
	l["dagrun.parallel_efficiency"] = ratioOrZero(nodeTotal, dagWorkers*sum(s.passes))
	l["nas.evals"] = ratioOrZero(float64(s.evals), float64(s.searches))
	l["nas.feasible_ratio"] = ratioOrZero(float64(s.feasible), float64(s.evals))
	l["graph.build_us"] = mean(s.buildUS)
	l["metrics.extract_us"] = mean(s.extractUS)
	l["core.fit_s"] = st.ns.fitS
	for k, v := range s.phase.selfPer(float64(len(s.passes))) {
		l[k] = v
	}
	l["trace.spans"] = float64(len(s.phase.spans))
	um, tm := median(u.passes), median(s.passes)
	l["trace.overhead_pct"] = (ratioOrZero(tm, um) - 1) * 100
	rep.notef("tracing overhead: repro_sim_s %.4g untraced vs %.4g traced; nas_evals_per_s %.0f vs %.0f",
		um, tm, ratioOrZero(float64(u.evals), u.searchSecs), ratioOrZero(float64(s.evals), s.searchSecs))
}
