// Package hwreal is the *real-hardware* measurement backend: it times
// actual executions of ConvMeter graphs (internal/exec's float32 kernels)
// on the host CPU and produces benchmark samples in the same format as
// the simulators. It closes the loop the paper's methodology describes —
// benchmark on the target device, fit coefficients, predict unseen
// models — with genuine wall-clock measurements instead of simulated
// ones: the "target device" is the Go runtime on the machine running the
// tests ("gocpu").
//
// Real measurement campaigns are wall-clock-bounded, so the default
// scenario is deliberately small; the fitted model is still evaluated
// with the paper's leave-one-model-out protocol in the tests and the
// extension experiment.
package hwreal

import (
	"fmt"
	"time"

	"convmeter/internal/core"
	"convmeter/internal/exec"
	"convmeter/internal/graph"
	"convmeter/internal/metrics"
	"convmeter/internal/models"
)

// DeviceName tags samples measured by this backend.
const DeviceName = "gocpu"

// Measure times the forward pass of a graph at the given batch size:
// warmup runs (untimed) followed by reps timed runs, returning the
// fastest observed time in seconds (the standard benchmarking practice
// for minimising scheduler noise).
func Measure(g *graph.Graph, batch, warmup, reps int, seed int64) (float64, error) {
	if err := checkPlan(batch, warmup, reps); err != nil {
		return 0, err
	}
	e, err := exec.NewExecutor(g, seed)
	if err != nil {
		return 0, err
	}
	return timeForward(e, batch, warmup, reps)
}

// timeForward is Measure's timing loop on an already built executor:
// the executor's seeded input at the batch size, warmup untimed runs,
// then the fastest of reps timed runs.
func timeForward(e *exec.Executor, batch, warmup, reps int) (float64, error) {
	if err := checkPlan(batch, warmup, reps); err != nil {
		return 0, err
	}
	in, err := e.RandomInput(batch)
	if err != nil {
		return 0, err
	}
	for i := 0; i < warmup; i++ {
		if _, err := e.Run(in); err != nil {
			return 0, err
		}
	}
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := e.Run(in); err != nil {
			return 0, err
		}
		d := time.Since(start).Seconds()
		if best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// checkPlan rejects a measurement plan that times nothing. Measure runs
// it before building the executor, so an invalid plan fails fast.
func checkPlan(batch, warmup, reps int) error {
	if batch <= 0 || reps <= 0 || warmup < 0 {
		return fmt.Errorf("hwreal: invalid measurement plan (batch %d, warmup %d, reps %d)", batch, warmup, reps)
	}
	return nil
}

// Scenario configures a real-hardware inference campaign.
type Scenario struct {
	Models  []string
	Images  []int
	Batches []int
	Warmup  int
	Reps    int
	Seed    int64
}

// DefaultScenario is a small campaign sized so the whole sweep measures
// in seconds on a development machine: light models, small images.
func DefaultScenario(seed int64) Scenario {
	return Scenario{
		Models:  []string{"squeezenet1_1", "mobilenet_v3_small", "resnet18", "mobilenet_v2"},
		Images:  []int{32, 48},
		Batches: []int{1, 2, 4},
		Warmup:  1,
		Reps:    2,
		Seed:    seed,
	}
}

// Collect runs the campaign and returns fitted-ready samples measured on
// the host CPU.
func Collect(sc Scenario) ([]core.Sample, error) {
	if len(sc.Models) == 0 || len(sc.Images) == 0 || len(sc.Batches) == 0 {
		return nil, fmt.Errorf("hwreal: empty scenario")
	}
	if sc.Reps <= 0 {
		sc.Reps = 1
	}
	var samples []core.Sample
	for _, name := range sc.Models {
		for _, img := range sc.Images {
			g, err := models.Build(name, img)
			if err != nil {
				continue // architecture cannot process this image size
			}
			met, err := metrics.FromGraph(g)
			if err != nil {
				return nil, err
			}
			// One executor serves every batch size: the weights depend
			// on (graph, seed) only, so each sample times exactly what
			// Measure would, without re-initialising the weights.
			e, err := exec.NewExecutor(g, sc.Seed)
			if err != nil {
				return nil, fmt.Errorf("hwreal: %s@%d: %w", name, img, err)
			}
			for _, batch := range sc.Batches {
				t, err := timeForward(e, batch, sc.Warmup, sc.Reps)
				if err != nil {
					return nil, fmt.Errorf("hwreal: %s@%d b%d: %w", name, img, batch, err)
				}
				samples = append(samples, core.Sample{
					Model: name, Met: met, Image: img,
					BatchPerDevice: batch, Devices: 1, Nodes: 1,
					Fwd: metrics.Seconds(t),
				})
			}
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("hwreal: no feasible configurations in the scenario")
	}
	return samples, nil
}
