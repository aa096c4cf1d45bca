package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"convmeter/internal/graph"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
	"convmeter/internal/obs"
	"convmeter/internal/train"
)

// The train-real configuration: ResNet-18 at 16×16, 2 workers with 2
// samples each, chan transport, SGD. At this size the work proportional
// to the 11.7 M weights (flatten, ring all-reduce, unflatten, update) is
// about a third of a step, so both kernel and sync/update changes show.
const (
	trainModel   = "resnet18"
	trainImage   = 16
	trainWorkers = 2
	trainBatch   = 2 // per worker
	trainLR      = 0.01
	trainClasses = 10
	trainNoise   = 0.5
)

type trainState struct {
	weights float64 // W, the length of the reduced gradient vector
	tr      *train.Trainer
	src     train.DataSource
	losses  []float64 // every step's mean loss, warm-up first
}

// newTrainer builds a trainer and its seeded data source.
func newTrainer(g *graph.Graph, seed int64, o *obs.Obs) (*train.Trainer, train.DataSource, error) {
	tr, err := train.NewTrainer(g, train.Config{
		Workers: trainWorkers, LR: trainLR, Optimizer: train.SGD, Seed: seed,
		Transport: train.TransportChan, Obs: o,
	})
	if err != nil {
		return nil, nil, err
	}
	task, err := train.NewPrototypeTask(g, trainClasses, trainNoise, seed+1)
	if err != nil {
		return nil, nil, err
	}
	return tr, task.Source(trainBatch), nil
}

// setupTrain builds the graph and trainer and runs one warm-up step.
func setupTrain(seed int64, o *obs.Obs) (*trainState, error) {
	g, err := models.Build(trainModel, trainImage)
	if err != nil {
		return nil, err
	}
	met, err := metrics.FromGraph(g)
	if err != nil {
		return nil, err
	}
	tr, src, err := newTrainer(g, seed, o)
	if err != nil {
		return nil, err
	}
	st := &trainState{weights: float64(met.Weights), tr: tr, src: src}
	loss, err := tr.Step(src)
	if err != nil {
		return nil, fmt.Errorf("warm-up step: %w", err)
	}
	st.losses = append(st.losses, loss)
	return st, nil
}

// measure steps the trainer until the deadline (at least two steps) and
// returns each step's wall time in seconds and its interval.
func (st *trainState) measure(rep *report, dl deadline) ([]float64, [][2]time.Time) {
	var secs []float64
	var ops [][2]time.Time
	for len(secs) < 2 || !dl.passed() {
		t := time.Now()
		loss, err := st.tr.Step(st.src)
		end := time.Now()
		d := end.Sub(t).Seconds()
		if err == nil && (math.IsNaN(loss) || math.IsInf(loss, 0)) {
			err = errCheck("step %d loss is %v", st.tr.StepIndex()-1, loss)
		}
		rep.op(err)
		if err != nil {
			if dl.passed() {
				break
			}
			continue
		}
		secs = append(secs, d)
		ops = append(ops, [2]time.Time{t, end})
		st.losses = append(st.losses, loss)
	}
	return secs, ops
}

// verify applies the data-parallel invariants after training: every
// replica holds identical weights, and the loss fell from the warm-up
// step to the mean of the last few steps.
func (st *trainState) verify(rep *report) {
	sums := st.tr.Checksums()
	var err error
	for _, c := range sums[1:] {
		if c != sums[0] {
			err = errCheck("replica checksums differ: %v", sums)
		}
	}
	rep.op(err)
	n := len(st.losses)
	k := min(5, n/2)
	err = nil
	if k < 1 {
		err = errCheck("only %d losses recorded", n)
	} else if last := mean(st.losses[n-k:]); !(last < st.losses[0]) {
		err = errCheck("loss did not fall: %.4g at warm-up, %.4g over the last %d steps", st.losses[0], last, k)
	}
	rep.op(err)
}

func runTrain(cfg runConfig) (*report, error) {
	rep := newReport("train-real")
	st, setupS, err := timedSetup(setupRounds, func() (*trainState, error) { return setupTrain(cfg.seed, nil) })
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	if !cfg.trace {
		smp, err := startRSS()
		if err != nil {
			return nil, err
		}
		secs, ops := st.measure(rep, after(cfg.seconds))
		rep.setPeakRSS(smp.stop(), ops)
		st.verify(rep)
		rep.e2e["op_s_p50"] = median(secs)
		rep.e2e["work_per_s"] = float64(len(secs)*trainWorkers*trainBatch) / sum(secs)
		trainNotes(rep, secs, setupS)
	} else {
		u, _ := st.measure(rep, after(cfg.seconds/2))
		st.verify(rep)
		// The traced trainer reports through the program's own hooks:
		// train.Config.Obs gives step/compute/grad/ar.* spans and, via
		// the replicas' SetObs, fwd/bwd spans and per-op-kind histograms.
		o := obs.New()
		ts, err := setupTrain(cfg.seed, o)
		if err != nil {
			return nil, err
		}
		rt0 := readRuntime()
		ph := startPhase(o)
		secs, _ := ts.measure(rep, after(cfg.seconds/2))
		ph.end()
		runtimeDelta(rt0, readRuntime(), rep.layer)
		ts.verify(rep)
		trainLayers(rep, ts, ph, u, secs)
		if err := traceOut(rep, cfg, ph.spans); err != nil {
			return nil, err
		}
		trainNotes(rep, secs, setupS)
	}
	return rep, nil
}

// trainNotes prints the workload's figures under their own names,
// including the highest tail percentile with ten samples beyond it.
func trainNotes(rep *report, secs []float64, setupS float64) {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	rep.notef("%-28s %10.3f s", "setup_s", setupS)
	rep.notef("%-28s %10.1f ms  (n=%d)", "step_ms_p50", median(ms), len(ms))
	reported := false
	for _, p := range []float64{0.99, 0.95, 0.9, 0.8, 0.75} {
		if tailReportable(ms, p) {
			rep.notef("%-28s %10.1f ms  (n=%d, %d beyond)", fmt.Sprintf("step_ms_p%.0f", p*100),
				percentile(ms, p), len(ms), beyond(ms, percentile(ms, p)))
			reported = true
			break
		}
	}
	if !reported {
		rep.notef("%-28s not reported: %d steps leave fewer than %d beyond p75", "step_ms_tail", len(ms), minBeyond)
	}
	rep.notef("%-28s %10.2f 1/s", "train_samples_per_s", float64(len(secs)*trainWorkers*trainBatch)/sum(secs))
}

// stepSpans groups a traced phase's program spans by training step.
type stepSpans struct {
	step     obs.SpanRecord
	compute  []obs.SpanRecord
	grad     obs.SpanRecord
	fwd, bwd []time.Duration
	ar       [][2]time.Duration
	wait     time.Duration
}

func groupSteps(spans []obs.SpanRecord) []*stepSpans {
	byID := map[int64]obs.SpanRecord{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	steps := map[int64]*stepSpans{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "step ") {
			steps[s.ID] = &stepSpans{step: s}
		}
	}
	// stepOf climbs the parent chain to the enclosing step span.
	stepOf := func(s obs.SpanRecord) *stepSpans {
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if st, ok := steps[p]; ok {
				return st
			}
		}
		return nil
	}
	for _, s := range spans {
		st := stepOf(s)
		if st == nil {
			continue
		}
		switch {
		case s.Name == "compute":
			st.compute = append(st.compute, s)
		case s.Name == "grad":
			st.grad = s
		case s.Name == "fwd":
			st.fwd = append(st.fwd, s.Dur)
		case s.Name == "bwd":
			st.bwd = append(st.bwd, s.Dur)
		case strings.HasPrefix(s.Name, "ar."):
			st.ar = append(st.ar, [2]time.Duration{s.Start, s.Start + s.Dur})
			if s.Name == "ar.wait" {
				st.wait += s.Dur
			}
		}
	}
	out := make([]*stepSpans, 0, len(steps))
	for _, st := range steps {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].step.Start < out[j].step.Start })
	return out
}

// trainLayers fills the per-layer metrics of a traced train-real run,
// per training step, from the program's spans and counters.
func trainLayers(rep *report, st *trainState, ph *tracedPhase, untraced, traced []float64) {
	l := rep.layer
	steps := groupSteps(ph.spans)
	n := float64(len(steps))
	var compute, wait, sync, update, ring, fwd, bwd, arWait []float64
	for _, s := range steps {
		if len(s.compute) == 0 {
			continue
		}
		lo, hi := s.compute[0].Dur, s.compute[0].Dur
		for _, c := range s.compute[1:] {
			lo, hi = min(lo, c.Dur), max(hi, c.Dur)
		}
		ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
		compute = append(compute, ms(hi))
		wait = append(wait, ms(hi-lo))
		sync = append(sync, ms(s.grad.Dur))
		update = append(update, ms(s.step.Dur-hi-s.grad.Dur))
		ring = append(ring, ms(cover(s.ar, s.grad.Start, s.grad.Start+s.grad.Dur)))
		for _, d := range s.fwd {
			fwd = append(fwd, ms(d))
		}
		for _, d := range s.bwd {
			bwd = append(bwd, ms(d))
		}
		arWait = append(arWait, ms(s.wait)/float64(len(s.compute)))
	}
	l["train.compute_ms"] = mean(compute)
	l["train.barrier_wait_ms"] = mean(wait)
	l["train.sync_ms"] = mean(sync)
	l["train.update_ms"] = mean(update)
	l["exec.fwd_ms"] = mean(fwd)
	l["exec.bwd_ms"] = mean(bwd)
	l["allreduce.ring_ms"] = mean(ring)
	l["allreduce.wait_ms"] = mean(arWait)
	l["allreduce.gbps"] = gbPerSecond(4*st.weights*float64(len(ring)), sum(ring)/1e3)
	l["allreduce.retries"] = counterTotal(ph.o.Reg, "convmeter_allreduce_retries_total") +
		counterTotal(ph.o.Reg, "convmeter_train_allreduce_retries_total")

	kinds := execKindSeconds(ph.o.Reg)
	total := 0.0
	for _, v := range kinds {
		total += v
	}
	// The histograms also hold the warm-up step's kernels.
	allSteps := float64(st.tr.StepIndex())
	for k, v := range kinds {
		l[k] = ratioOrZero(v, allSteps)
	}
	l["exec.conv2d_share"] = ratioOrZero(kinds["exec.conv2d_s"], total)
	for k, v := range ph.selfPer(n) {
		l[k] = v
	}
	l["trace.spans"] = float64(len(ph.spans))
	um, tm := median(untraced), median(traced)
	l["trace.overhead_pct"] = (ratioOrZero(tm, um) - 1) * 100
	rep.notef("tracing overhead: step_ms_p50 %.1f untraced vs %.1f traced", um*1e3, tm*1e3)
}
