package hwreal

import (
	"strings"
	"testing"

	"convmeter/internal/core"
	"convmeter/internal/graph"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
)

func TestMeasurePositiveAndOrdered(t *testing.T) {
	g, err := models.Build("squeezenet1_1", 32)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Measure(g, 1, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= 0 {
		t.Fatalf("measured time %g", t1)
	}
	t8, err := Measure(g, 8, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if t8 <= t1 {
		t.Fatalf("batch 8 (%g s) should take longer than batch 1 (%g s)", t8, t1)
	}
}

func TestMeasureValidation(t *testing.T) {
	g, err := models.Build("squeezenet1_1", 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(g, 0, 0, 1, 1); err == nil {
		t.Fatal("expected batch error")
	}
	if _, err := Measure(g, 1, -1, 1, 1); err == nil {
		t.Fatal("expected warmup error")
	}
	if _, err := Measure(g, 1, 0, 0, 1); err == nil {
		t.Fatal("expected reps error")
	}
	// The plan is checked before the graph is: an invalid plan on an
	// invalid graph reports the plan, without building an executor.
	_, err = Measure(&graph.Graph{}, 0, 0, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "invalid measurement plan") {
		t.Fatalf("invalid plan on an empty graph: err = %v, want the plan error", err)
	}
}

func TestCollectAndFitRealMeasurements(t *testing.T) {
	if testing.Short() {
		t.Skip("real measurement sweep in short mode")
	}
	// The full loop on real wall-clock data: measure → fit → LOMO.
	sc := Scenario{
		Models:  []string{"squeezenet1_1", "mobilenet_v3_small", "resnet18"},
		Images:  []int{32},
		Batches: []int{1, 2, 4},
		Warmup:  1,
		Reps:    2,
		Seed:    1,
	}
	samples, err := Collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Fatalf("collected %d samples, want 9", len(samples))
	}
	for _, s := range samples {
		if s.Fwd <= 0 {
			t.Fatalf("non-positive real measurement: %+v", s)
		}
	}
	ev, err := core.EvaluateInferenceLOMO(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Real wall-clock on a shared CI machine is noisy and the sweep is
	// tiny; require only a usable fit, not paper-grade accuracy.
	if ev.Overall.MAPE > 2.0 {
		t.Fatalf("real-measurement LOMO MAPE %.3f unusable", ev.Overall.MAPE)
	}
}

// TestCollectSampleOrder pins Collect's output sequence with one
// executor per (model, image): model-major, then image, then batch in
// scenario order, infeasible (model, image) pairs skipped, and the
// metadata each sample carried when every batch built its own executor.
func TestCollectSampleOrder(t *testing.T) {
	sc := Scenario{
		Models:  []string{"squeezenet1_1", "alexnet", "mobilenet_v3_small"},
		Images:  []int{32, 16},
		Batches: []int{2, 1},
		Reps:    1,
		Seed:    3,
	}
	samples, err := Collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		model        string
		image, batch int
	}
	var want []key
	for _, m := range sc.Models {
		for _, img := range sc.Images {
			if _, err := models.Build(m, img); err != nil {
				continue
			}
			for _, b := range sc.Batches {
				want = append(want, key{m, img, b})
			}
		}
	}
	if len(want) < 4 {
		t.Fatalf("scenario has only %d feasible configurations", len(want))
	}
	if len(samples) != len(want) {
		t.Fatalf("collected %d samples, want %d", len(samples), len(want))
	}
	for i, s := range samples {
		if got := (key{s.Model, s.Image, s.BatchPerDevice}); got != want[i] {
			t.Fatalf("sample %d is %+v, want %+v", i, got, want[i])
		}
		g, _ := models.Build(s.Model, s.Image)
		met, err := metrics.FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		if s.Met != met || s.Devices != 1 || s.Nodes != 1 || !(s.Fwd > 0) {
			t.Fatalf("sample %d metadata %+v", i, s)
		}
	}
}

func TestCollectErrors(t *testing.T) {
	if _, err := Collect(Scenario{}); err == nil {
		t.Fatal("expected empty-scenario error")
	}
	sc := Scenario{Models: []string{"alexnet"}, Images: []int{32}, Batches: []int{1}, Reps: 1}
	// alexnet cannot build at 32px → no feasible configuration.
	if _, err := Collect(sc); err == nil {
		t.Fatal("expected no-feasible-configuration error")
	}
}
