package main

import (
	"fmt"
	"math"
	"time"

	"convmeter/internal/core"
	"convmeter/internal/exec"
	"convmeter/internal/graph"
	"convmeter/internal/hwreal"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/obs"
)

// The infer-real campaign: every model at every image size and batch,
// measured through hwreal.Measure, then fitted and evaluated
// leave-one-model-out.
var (
	inferModels  = []string{"resnet18", "mobilenet_v2", "squeezenet1_1", "mobilenet_v3_small"}
	inferImages  = []int{32, 64}
	inferBatches = []int{1, 4}
)

// The campaign's measurement plan: one timed pass per configuration,
// which keeps a whole campaign to a few seconds on a 2-core host so a
// run holds several of them.
const (
	measureWarmup = 0
	measureReps   = 1
)

// The two forward latencies ROADMAP's kernel work targets.
var fwdTargets = []struct {
	name       string
	model      string
	img, batch int
}{
	{"resnet18_fwd_ms_p50", "resnet18", 64, 4},
	{"mobilenet_v2_fwd_ms_p50", "mobilenet_v2", 64, 4},
}

// inferGraph is one (model, image) graph with the benchmark's own
// executor, used for checked forward passes at batch 1.
type inferGraph struct {
	key   string
	model string
	img   int
	g     *graph.Graph
	met   metrics.Metrics
	exec  *exec.Executor
	input *exec.Tensor // seeded batch-1 input
	tol   float64
	first *outputSum // this run's first output checksum
}

// inferCase is one campaign configuration.
type inferCase struct {
	g     *inferGraph
	batch int
	flops float64 // analytical F · batch
}

func (c *inferCase) key() string { return fmt.Sprintf("%s b%d", c.g.key, c.batch) }

type inferState struct {
	graphs    []*inferGraph
	cases     []*inferCase
	seed      int64
	newExecS  float64 // exec.NewExecutor time in the set-up
	refChecks []error // reference comparisons made during set-up
}

func setupInfer(seed int64, ref *referenceData) (*inferState, error) {
	st := &inferState{seed: seed}
	for _, name := range inferModels {
		for _, img := range inferImages {
			g, err := models.Build(name, img)
			if err != nil {
				return nil, err
			}
			met, err := metrics.FromGraph(g)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			e, err := exec.NewExecutor(g, ref.Infer.WeightSeed)
			if err != nil {
				return nil, err
			}
			st.newExecS += time.Since(t0).Seconds()
			shape, err := g.InputShape()
			if err != nil {
				return nil, err
			}
			ig := &inferGraph{key: graphKey(name, img), model: name, img: img, g: g, met: met, exec: e,
				input: seededInput(shape, 1, seed, int64(len(st.graphs))), tol: outputTolerance(g)}
			st.graphs = append(st.graphs, ig)
			for _, b := range inferBatches {
				st.cases = append(st.cases, &inferCase{g: ig, batch: b, flops: float64(met.FLOPs) * float64(b)})
			}
		}
	}
	// The reference passes double as the warm-up: they start the kernel
	// pool and touch every model's weights once.
	for _, ig := range st.graphs {
		if ig.img != ref.Infer.Image {
			continue
		}
		shape, _ := ig.g.InputShape()
		err := func() error {
			out, err := ig.exec.Run(seededInput(shape, 1, ref.Infer.InputSeed, 0))
			if err != nil {
				return err
			}
			got, err := checksum(out)
			if err != nil {
				return fmt.Errorf("%s reference pass: %w", ig.key, err)
			}
			want, ok := ref.Infer.Outputs[ig.key]
			if !ok {
				return fmt.Errorf("reference.json has no output for %s", ig.key)
			}
			if err := sumsAgree(got, want, ig.tol); err != nil {
				return fmt.Errorf("%s reference pass: %w", ig.key, err)
			}
			return nil
		}()
		st.refChecks = append(st.refChecks, err)
	}
	return st, nil
}

// inferStats is what one measuring phase observed.
type inferStats struct {
	campaigns    []float64 // complete campaign + fit + LOMO wall times
	measureCalls int
	measureSecs  float64 // Σ hwreal.Measure wall time
	bestSecs     float64 // Σ timed-pass time Measure reported
	passFlops    []float64
	passSecs     []float64            // timed forward passes of whole cycles (Measure's and the benchmark's)
	byCase       map[string][]float64 // Measure's timed pass per configuration
	fits, lomos  []float64
	lastEval     *core.Evaluation
	ownSecs      map[string][]float64 // benchmark's own batch-1 passes per graph
	ownPasses    int
	ownAlloc     uint64
	cycles       [][2]time.Time // complete campaign + check-round intervals
	phase        *tracedPhase   // nil when untraced
}

// measure runs the closed loop until the deadline: a campaign over all
// configurations, its fit and LOMO evaluation, then one checked
// batch-1 pass per graph. The first campaign always completes, so even
// a very short run reports a campaign time. The pass rate counts whole
// cycles only, so a campaign cut off by the deadline cannot tilt the
// model mix. With o non-nil every public call is wrapped in a span and
// the executors report per-op latencies.
func (st *inferState) measure(rep *report, dl deadline, o *obs.Obs) *inferStats {
	s := &inferStats{byCase: map[string][]float64{}, ownSecs: map[string][]float64{}}
	if o != nil {
		s.phase = startPhase(o)
	}
	for first := true; first || !dl.passed(); first = false {
		cycleStart := time.Now()
		samples := make([]core.Sample, 0, len(st.cases))
		var flops, secs []float64 // this cycle's timed forward passes
		campaign := 0.0
		complete := true
		for _, c := range st.cases {
			if !first && dl.passed() {
				complete = false
				break
			}
			sp := o.Start("hwreal.Measure")
			t := time.Now()
			best, err := hwreal.Measure(c.g.g, c.batch, measureWarmup, measureReps, st.seed)
			d := time.Since(t).Seconds()
			sp.End()
			if err == nil && !(best > 0 && best <= d) {
				err = errCheck("%s: Measure returned %v s for a %v s call", c.key(), best, d)
			}
			rep.op(err)
			if err != nil {
				complete = false
				continue
			}
			campaign += d
			s.measureCalls++
			s.measureSecs += d
			s.bestSecs += best
			flops = append(flops, c.flops)
			secs = append(secs, best)
			s.byCase[c.key()] = append(s.byCase[c.key()], best)
			samples = append(samples, core.Sample{Model: c.g.model, Met: c.g.met, Image: c.g.img,
				BatchPerDevice: c.batch, Devices: 1, Nodes: 1, Fwd: metrics.Seconds(best)})
		}
		if !complete {
			break
		}
		fitS, err := st.fit(o, samples)
		rep.op(err)
		lomoS, ev, lerr := st.lomo(o, samples)
		rep.op(lerr)
		if err == nil && lerr == nil {
			s.fits = append(s.fits, fitS)
			s.lomos = append(s.lomos, lomoS)
			s.lastEval = ev
			s.campaigns = append(s.campaigns, campaign+fitS+lomoS)
		}
		for _, ig := range st.graphs {
			d, err := st.ownPass(s, ig, o)
			rep.op(err)
			if err == nil {
				flops = append(flops, float64(ig.met.FLOPs))
				secs = append(secs, d)
			}
		}
		s.passFlops = append(s.passFlops, flops...)
		s.passSecs = append(s.passSecs, secs...)
		s.cycles = append(s.cycles, [2]time.Time{cycleStart, time.Now()})
	}
	if o != nil {
		s.phase.end()
	}
	return s
}

func (st *inferState) fit(o *obs.Obs, samples []core.Sample) (float64, error) {
	sp := o.Start("core.FitInference")
	t := time.Now()
	m, err := core.FitInference(samples)
	d := time.Since(t).Seconds()
	sp.End()
	if err != nil {
		return d, err
	}
	for i, c := range m.Coefficients() {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return d, errCheck("fitted coefficient %d is %v", i, c)
		}
	}
	return d, nil
}

func (st *inferState) lomo(o *obs.Obs, samples []core.Sample) (float64, *core.Evaluation, error) {
	sp := o.Start("core.EvaluateInferenceLOMO")
	t := time.Now()
	ev, err := core.EvaluateInferenceLOMO(samples)
	d := time.Since(t).Seconds()
	sp.End()
	if err != nil {
		return d, nil, err
	}
	if ev.Overall.N != len(samples) || math.IsNaN(ev.Overall.MAPE) || math.IsNaN(ev.Overall.R2) {
		return d, nil, errCheck("LOMO evaluated %d of %d points (MAPE %v, R² %v)",
			ev.Overall.N, len(samples), ev.Overall.MAPE, ev.Overall.R2)
	}
	return d, ev, nil
}

// ownPass runs one checked batch-1 forward pass with the benchmark's
// executor and returns its time: the output must be finite and agree
// with this run's first output for the graph.
func (st *inferState) ownPass(s *inferStats, ig *inferGraph, o *obs.Obs) (float64, error) {
	sp := o.Start("exec.Run")
	if o != nil {
		ig.exec.SetObs(o.WithSpan(sp))
	}
	a0 := uint64(0)
	if o != nil {
		a0 = allocBytes()
	}
	t := time.Now()
	out, err := ig.exec.Run(ig.input)
	d := time.Since(t).Seconds()
	if o != nil {
		s.ownAlloc += allocBytes() - a0
	}
	sp.End()
	if err != nil {
		return d, fmt.Errorf("%s: %w", ig.key, err)
	}
	s.ownPasses++
	s.ownSecs[ig.key] = append(s.ownSecs[ig.key], d)
	got, err := checksum(out)
	if err != nil {
		return d, fmt.Errorf("%s: %w", ig.key, err)
	}
	if ig.first == nil {
		ig.first = &got
		return d, nil
	}
	if err := sumsAgree(got, *ig.first, ig.tol); err != nil {
		return d, fmt.Errorf("%s repeated pass: %w", ig.key, err)
	}
	return d, nil
}

func runInfer(cfg runConfig) (*report, error) {
	rep := newReport("infer-real")
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	st, setupS, err := timedSetup(setupRounds, func() (*inferState, error) { return setupInfer(cfg.seed, ref) })
	if err != nil {
		return nil, err
	}
	for _, e := range st.refChecks {
		rep.op(e)
	}
	rep.e2e["setup_s"] = setupS
	if !cfg.trace {
		smp, err := startRSS()
		if err != nil {
			return nil, err
		}
		s := st.measure(rep, after(cfg.seconds), nil)
		rep.setPeakRSS(smp.stop(), s.cycles)
		rep.e2e["op_s_p50"] = median(s.campaigns)
		rep.e2e["work_per_s"] = gflopsRate(s.passFlops, s.passSecs)
		inferNotes(rep, s, setupS)
	} else {
		u := st.measure(rep, after(cfg.seconds/2), nil)
		o := obs.New()
		rt0 := readRuntime()
		s := st.measure(rep, after(cfg.seconds/2), o)
		runtimeDelta(rt0, readRuntime(), rep.layer)
		for _, ig := range st.graphs {
			ig.exec.SetObs(nil)
		}
		inferLayers(rep, st, u, s)
		if err := convCatalogue(rep, st.graphs); err != nil {
			return nil, err
		}
		if err := traceOut(rep, cfg, s.phase.spans); err != nil {
			return nil, err
		}
		inferNotes(rep, s, setupS)
	}
	return rep, nil
}

// inferNotes prints the workload's figures under their own names.
func inferNotes(rep *report, s *inferStats, setupS float64) {
	rep.notef("%-28s %10.3f s", "setup_s", setupS)
	rep.notef("%-28s %10.3f s   (median of n=%d campaigns)", "campaign_s", median(s.campaigns), len(s.campaigns))
	rep.notef("%-28s %10.3f GFLOP/s (%d timed forward passes)", "infer_gflops", gflopsRate(s.passFlops, s.passSecs), len(s.passSecs))
	for _, t := range fwdTargets {
		xs := s.byCase[fmt.Sprintf("%s b%d", graphKey(t.model, t.img), t.batch)]
		rep.notef("%-28s %10.1f ms  (n=%d)", t.name, median(xs)*1e3, len(xs))
	}
}

// inferLayers fills the per-layer metrics of a traced infer-real run
// from the untraced phase u and the traced phase s.
func inferLayers(rep *report, st *inferState, u, s *inferStats) {
	l := rep.layer
	rounds := float64(s.ownPasses) / float64(len(st.graphs))
	kinds := execKindSeconds(s.phase.o.Reg)
	total := 0.0
	for _, v := range kinds {
		total += v
	}
	for k, v := range kinds {
		l[k] = ratioOrZero(v, rounds)
	}
	l["exec.conv2d_share"] = ratioOrZero(kinds["exec.conv2d_s"], total)
	l["exec.new_executor_s"] = st.newExecS
	l["exec.fwd_alloc_mb"] = ratioOrZero(float64(s.ownAlloc)/1e6, float64(s.ownPasses))

	// Per-campaign figures divide by the phase's work in campaigns.
	campaigns := float64(s.measureCalls) / float64(len(st.cases))
	l["hwreal.measure_calls"] = float64(s.measureCalls)
	l["hwreal.measure_s"] = ratioOrZero(s.measureSecs, campaigns)
	l["hwreal.timed_share"] = ratioOrZero(s.bestSecs, s.measureSecs)
	var spreads []float64
	for _, ig := range st.graphs {
		xs := append(append([]float64(nil), u.ownSecs[ig.key]...), s.ownSecs[ig.key]...)
		if len(xs) >= 2 {
			spreads = append(spreads, percentile(xs, 1)/percentile(xs, 0))
		}
	}
	l["hwreal.rep_spread"] = median(spreads)

	l["core.fit_s"] = mean(s.fits)
	l["core.lomo_s"] = mean(s.lomos)
	if s.lastEval != nil {
		l["core.lomo_mape"] = s.lastEval.Overall.MAPE
		l["core.lomo_r2"] = s.lastEval.Overall.R2
	}
	for k, v := range s.phase.selfPer(campaigns) {
		l[k] = v
	}
	l["trace.spans"] = float64(len(s.phase.spans))
	ug, tg := gflopsRate(u.passFlops, u.passSecs), gflopsRate(s.passFlops, s.passSecs)
	l["trace.overhead_pct"] = (ratioOrZero(ug, tg) - 1) * 100
	rep.notef("tracing overhead: infer_gflops %.4g untraced vs %.4g traced; campaign_s %.4g vs %.4g",
		ug, tg, median(u.campaigns), median(s.campaigns))
}

// traceOut writes the traced phase's spans once, at the end of the run.
func traceOut(rep *report, cfg runConfig, spans []obs.SpanRecord) error {
	id := fmt.Sprintf("%s-seed%d-%d", rep.workload, cfg.seed, time.Now().UnixNano())
	path, err := writeSpans(id, spans)
	if err != nil {
		return err
	}
	rep.notef("spans of run %s written to %s", id, path)
	return nil
}
