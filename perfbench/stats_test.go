package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"convmeter/internal/graph"
	"convmeter/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 92 samples 1..92: p90 = 82.9, and 10 samples (83..92) lie beyond.
	if got := beyond(seq(92), percentile(seq(92), 0.9)); got != 10 || !tailReportable(seq(92), 0.9) {
		t.Errorf("p90 of 92 samples has %d beyond; want 10, reportable", got)
	}
	// 91 samples: p90 = 82, and only 9 (83..91) lie beyond.
	if got := beyond(seq(91), percentile(seq(91), 0.9)); got != 9 || tailReportable(seq(91), 0.9) {
		t.Errorf("p90 of 91 samples has %d beyond; want 9, not reportable", got)
	}
	// 50 samples support p80 (10 beyond) but not p90.
	if !tailReportable(seq(50), 0.8) || tailReportable(seq(50), 0.9) {
		t.Error("50 samples: p80 reportable, p90 not")
	}
	// Ties at the top do not count as beyond.
	flat := make([]float64, 200)
	if tailReportable(flat, 0.9) {
		t.Error("identical samples leave nothing beyond any percentile")
	}
}

func TestGflopsRateWeightsByWork(t *testing.T) {
	// 2 GFLOP in 1 s and 6 GFLOP in 1 s: 4 GFLOP/s overall, not the
	// mean of per-pass rates.
	if got := gflopsRate([]float64{2e9, 6e9}, []float64{1, 1}); !near(got, 4) {
		t.Errorf("gflopsRate = %v, want 4", got)
	}
	// 1 GFLOP in 1 s and 1 GFLOP in 3 s: 0.5 GFLOP/s, where the mean of
	// per-pass rates would say 0.667.
	if got := gflopsRate([]float64{1e9, 1e9}, []float64{1, 3}); !near(got, 0.5) {
		t.Errorf("gflopsRate = %v, want 0.5", got)
	}
	if gflopsRate(nil, nil) != 0 {
		t.Error("no passes should give 0")
	}
}

func TestAllreduceGbps(t *testing.T) {
	// 11.7 M float32 gradients reduced in 26 ms.
	w := 11.7e6
	got := gbPerSecond(4*w, 0.026)
	if !near(got, 4*w/0.026/1e9) || !near(got, 1.8) {
		t.Errorf("gbPerSecond = %v, want 1.8", got)
	}
	if gbPerSecond(1, 0) != 0 {
		t.Error("zero time should give 0")
	}
}

func TestFlopPerByte(t *testing.T) {
	// A 3×3 conv, 64→64 channels on 8×8 at batch 1:
	// F = 2·64·8·8·64·9, I = O = 64·8·8, W = 64·64·9.
	f, i, o, w := 2.0*64*8*8*64*9, 64.0*8*8, 64.0*8*8, 64.0*64*9
	want := f / (4 * (i + o + w))
	if got := flopPerByte(f, i, o, w); !near(got, want) {
		t.Errorf("flopPerByte = %v, want %v", got, want)
	}
}

func span(id, parent int64, name string, start, end int) obs.SpanRecord {
	return obs.SpanRecord{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start) * time.Millisecond, Dur: time.Duration(end-start) * time.Millisecond}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []obs.SpanRecord{
		span(1, 0, "step 0", 0, 100),
		// Two workers' compute overlap: their union [10, 70) counts once.
		span(2, 1, "compute", 10, 60),
		span(3, 1, "compute", 20, 70),
		span(4, 1, "grad", 80, 90),
		// A child sticking out of its parent is clipped to the parent.
		span(5, 4, "ar.send", 85, 95),
		span(6, 2, "fwd", 10, 30),
	}
	self := selfTimes(spans)
	ms := func(id int64) float64 { return self[id].Seconds() * 1e3 }
	for _, c := range []struct {
		id   int64
		want float64
	}{{1, 100 - 60 - 10}, {2, 50 - 20}, {3, 50}, {4, 10 - 5}, {5, 10}, {6, 20}} {
		if !near(ms(c.id), c.want) {
			t.Errorf("self(%d) = %v ms, want %v", c.id, ms(c.id), c.want)
		}
	}
	// Layer totals, over a phase [0, 120) in which 20 ms lie outside
	// every root span.
	layers := layerSelf(spans, 0, 120*time.Millisecond)
	want := map[string]float64{"train": 30 + 30 + 50, "allreduce": 5 + 10, "exec": 20, "bench": 20}
	for layer, w := range want {
		if got := layers[layer].Seconds() * 1e3; !near(got, w) {
			t.Errorf("layer %s self = %v ms, want %v", layer, got, w)
		}
	}
}

func TestCoverMergesAndClips(t *testing.T) {
	iv := [][2]time.Duration{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := cover(iv, 0, 25); got != 3+7+5 {
		t.Errorf("cover = %v, want 15", got)
	}
	if cover(nil, 0, 10) != 0 {
		t.Error("empty cover should be 0")
	}
}

func TestClassifyConvPrimitives(t *testing.T) {
	for _, c := range []struct {
		op   graph.Conv2dOp
		want string
	}{
		{graph.Conv2dOp{InC: 64, OutC: 64, KH: 3, KW: 3, Groups: 1}, "conv3x3"},
		{graph.Conv2dOp{InC: 64, OutC: 128, KH: 1, KW: 1, Groups: 1}, "conv1x1"},
		{graph.Conv2dOp{InC: 32, OutC: 32, KH: 3, KW: 3, Groups: 32}, "dwconv"},
		{graph.Conv2dOp{InC: 96, OutC: 96, KH: 5, KW: 5, Groups: 96}, "dwconv"},
		{graph.Conv2dOp{InC: 3, OutC: 64, KH: 7, KW: 7, Groups: 1}, "conv_other"},
		{graph.Conv2dOp{InC: 64, OutC: 64, KH: 3, KW: 3, Groups: 4}, "conv_other"},
	} {
		if got := classify(c.op); got != c.want {
			t.Errorf("classify(%+v) = %s, want %s", c.op, got, c.want)
		}
	}
}

func TestOutputToleranceScalesWithReduction(t *testing.T) {
	build := func(ch int) *graph.Graph {
		b, x := graph.NewBuilder("t", graph.Shape{C: ch, H: 4, W: 4})
		x = b.Conv(x, "c1", ch, 3, 1, 1)
		b.Conv(x, "c2", ch, 3, 1, 1)
		return b.MustBuild()
	}
	small, big := outputTolerance(build(4)), outputTolerance(build(64))
	// Reduction length 36 vs 576: tolerance grows by √16 = 4.
	if !near(big/small, 4) {
		t.Errorf("tolerance ratio = %v, want 4", big/small)
	}
	want := outputSum{L1: 100, Signed: 3}
	if err := sumsAgree(outputSum{L1: 100 * (1 + small/2), Signed: 3}, want, small); err != nil {
		t.Errorf("within tolerance rejected: %v", err)
	}
	if err := sumsAgree(outputSum{L1: 100, Signed: 3 + 200*small}, want, small); err == nil {
		t.Error("beyond tolerance accepted")
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric names the
// benchmark prints and the ones BENCHMARK.json declares identical.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range doc.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	var wantE2E, wantLayer []string
	for n, u := range e2eUnits {
		wantE2E = append(wantE2E, n+" "+u)
	}
	for _, m := range perLayer {
		wantLayer = append(wantLayer, m.name+" "+m.unit)
	}
	for _, s := range [][]string{e2e, layer, wantE2E, wantLayer} {
		slices.Sort(s)
	}
	if !slices.Equal(e2e, wantE2E) {
		t.Errorf("end_to_end %v, benchmark prints %v", e2e, wantE2E)
	}
	if !slices.Equal(layer, wantLayer) {
		t.Errorf("per_layer %v, benchmark prints %v", layer, wantLayer)
	}
}

func TestOpPeaksTakesEachOperationsMaximum(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []rssSample{{at(0), 10}, {at(10), 30}, {at(20), 20}, {at(30), 50}, {at(40), 40}}
	ops := [][2]time.Time{{at(0), at(20)}, {at(25), at(45)}, {at(50), at(60)}}
	got := opPeaks(samples, ops)
	// The third operation holds no sample and is skipped.
	if !slices.Equal(got, []float64{30, 50}) {
		t.Errorf("opPeaks = %v, want [30 50]", got)
	}
}

func TestRSSSamplerStops(t *testing.T) {
	s, err := startRSS()
	if err != nil {
		t.Skipf("no /proc/self/statm: %v", err)
	}
	time.Sleep(3 * rssInterval)
	samples := s.stop()
	if len(samples) == 0 || samples[0].mb <= 0 {
		t.Fatalf("samples = %v, want at least one positive reading", samples)
	}
}
