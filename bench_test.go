package convmeter

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (regenerating the corresponding experiment end to end in its
// Quick configuration), plus micro-benchmarks of the pipeline stages.
// Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale tables are produced by cmd/experiments and recorded in
// EXPERIMENTS.md.

import (
	"fmt"
	"math/rand"
	"testing"

	"convmeter/internal/allreduce"
	"convmeter/internal/exec"
	"convmeter/internal/experiments"
	"convmeter/internal/graph"
	"convmeter/internal/hwreal"
	"convmeter/internal/train"
)

// benchCfg is the reduced experiment configuration used for benches so a
// full -bench=. sweep stays fast while exercising every code path.
var benchCfg = experiments.Config{Seed: 1, Quick: true}

// runExperimentBench drives one paper experiment per iteration.
func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Text == "" {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig2MetricAblation regenerates Figure 2 (FLOPs vs Inputs vs
// Outputs vs combined inference prediction).
func BenchmarkFig2MetricAblation(b *testing.B) { runExperimentBench(b, "fig2") }

// BenchmarkTable1Inference regenerates Table 1 / Figure 3 (per-ConvNet
// inference accuracy on CPU and GPU).
func BenchmarkTable1Inference(b *testing.B) { runExperimentBench(b, "table1") }

// BenchmarkTable2Blocks regenerates Table 2 / Figure 4 (block-wise
// prediction).
func BenchmarkTable2Blocks(b *testing.B) { runExperimentBench(b, "table2") }

// BenchmarkTable3SingleGPU regenerates the single-GPU half of Table 3 /
// Figure 5.
func BenchmarkTable3SingleGPU(b *testing.B) { runExperimentBench(b, "table3single") }

// BenchmarkFig6DIPPM regenerates Figure 6 (ConvMeter vs the DIPPM
// surrogate).
func BenchmarkFig6DIPPM(b *testing.B) { runExperimentBench(b, "fig6") }

// BenchmarkTable3Distributed regenerates the distributed half of Table 3
// / Figure 7.
func BenchmarkTable3Distributed(b *testing.B) { runExperimentBench(b, "table3multi") }

// BenchmarkFig8NodeScaling regenerates Figure 8 (throughput vs nodes).
func BenchmarkFig8NodeScaling(b *testing.B) { runExperimentBench(b, "fig8") }

// BenchmarkFig9BatchScaling regenerates Figure 9 (throughput vs batch).
func BenchmarkFig9BatchScaling(b *testing.B) { runExperimentBench(b, "fig9") }

// BenchmarkAblationDatasetSize regenerates the modeling-effort and design
// ablations (§3.4 / Table 4 context).
func BenchmarkAblationDatasetSize(b *testing.B) { runExperimentBench(b, "ablation") }

// --- Pipeline micro-benchmarks ---------------------------------------------

// BenchmarkBuildModel measures graph construction for representative
// zoo members.
func BenchmarkBuildModel(b *testing.B) {
	for _, name := range []string{"alexnet", "resnet50", "densenet121", "efficientnet_b0"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildModel(name, 224); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMetricsExtraction measures static metric extraction — the
// operation ConvMeter performs instead of running the network.
func BenchmarkMetricsExtraction(b *testing.B) {
	g, err := BuildModel("resnet50", 224)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MetricsOf(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitInference measures fitting the four-coefficient model on a
// paper-sized dataset — the paper's "modeling effort" (§3.4, Table 4).
func BenchmarkFitInference(b *testing.B) {
	sc := DefaultInferenceScenario(A100(), 1)
	samples, err := CollectInference(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitInference(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictInference measures a single prediction — the operation
// NAS loops would issue per candidate.
func BenchmarkPredictInference(b *testing.B) {
	sc := DefaultInferenceScenario(A100(), 1)
	sc.Models = []string{"resnet18", "mobilenet_v2", "vgg11"}
	sc.Images = []int{64, 128}
	sc.Batches = []int{1, 8, 64}
	samples, err := CollectInference(sc)
	if err != nil {
		b.Fatal(err)
	}
	m, err := FitInference(samples)
	if err != nil {
		b.Fatal(err)
	}
	g, err := BuildModel("resnet50", 224)
	if err != nil {
		b.Fatal(err)
	}
	met, err := MetricsOf(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Predict(met, 64) <= 0 {
			b.Fatal("bad prediction")
		}
	}
}

// BenchmarkSimulatedTrainStep measures one simulated distributed training
// step (the measurement generator).
func BenchmarkSimulatedTrainStep(b *testing.B) {
	sim, err := NewTrainSimulator(A100(), Cluster(), 0.05, 0.15, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := BuildModel("resnet50", 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.TrainStep(g, 32, 16, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionExperiments drives the future-work extensions
// (ViT, edge, pipeline, strong scaling) in their quick configuration.
func BenchmarkExtensionExperiments(b *testing.B) {
	for _, id := range []string{"extvit", "extedge", "extpipeline", "extstrong"} {
		b.Run(id, func(b *testing.B) { runExperimentBench(b, id) })
	}
}

// BenchmarkRealExecution measures the Go-native execution engine — the
// actual kernels the hwreal backend times (a real inference per
// iteration).
func BenchmarkRealExecution(b *testing.B) {
	for _, name := range []string{"squeezenet1_1", "resnet18", "mobilenet_v3_small"} {
		b.Run(name, func(b *testing.B) {
			g, err := BuildModel(name, 32)
			if err != nil {
				b.Fatal(err)
			}
			e, err := exec.NewExecutor(g, 1)
			if err != nil {
				b.Fatal(err)
			}
			in, err := e.RandomInput(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConv2d measures the conv kernel on three shapes from the
// infer-real conv catalogue (perfbench/convcat.go), one per conv2d
// path: a dense 3×3 (im2col + GEMM), a 1×1 projection (pointwise GEMM)
// and a 3×3 depthwise conv (row loop), each as a one-conv graph run at
// batch 1.
func BenchmarkConv2d(b *testing.B) {
	for _, c := range []struct {
		name string
		in   Shape
		spec graph.ConvSpec
	}{
		{"3x3_64c_16px", Shape{C: 64, H: 16, W: 16}, graph.ConvSpec{Out: 64, KH: 3, KW: 3, PadH: 1, PadW: 1}},
		{"1x1_96to24_16px", Shape{C: 96, H: 16, W: 16}, graph.ConvSpec{Out: 24}},
		{"dw3x3_144c_16px", Shape{C: 144, H: 16, W: 16}, graph.ConvSpec{Out: 144, KH: 3, KW: 3, PadH: 1, PadW: 1, Groups: 144}},
	} {
		b.Run(c.name, func(b *testing.B) {
			bld, x := NewGraph("conv", c.in)
			bld.Conv2d(x, "conv", c.spec)
			g, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			e, err := exec.NewExecutor(g, 1)
			if err != nil {
				b.Fatal(err)
			}
			in, err := e.RandomInput(1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealMeasurement measures the hwreal measurement path end to
// end (executor construction + warmup + timed run).
func BenchmarkRealMeasurement(b *testing.B) {
	g, err := BuildModel("squeezenet1_1", 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hwreal.Measure(g, 1, 0, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingAllReduce measures the real ring all-reduce across worker
// counts at a ResNet-18-sized gradient payload (11.7 M floats).
func BenchmarkRingAllReduce(b *testing.B) {
	const length = 11_700_000 / 8 // per-benchmark-size kept moderate
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			base := make([][]float32, workers)
			rng := rand.New(rand.NewSource(1))
			for w := range base {
				v := make([]float32, length)
				for i := range v {
					v[i] = float32(rng.NormFloat64())
				}
				base[w] = v
			}
			scratch := make([][]float32, workers)
			b.SetBytes(int64(length) * 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for w := range base {
					scratch[w] = append(scratch[w][:0], base[w]...)
				}
				b.StartTimer()
				if err := allreduce.Ring(scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealGradients measures a full real training computation
// (forward + loss + backward) on a small CNN.
func BenchmarkRealGradients(b *testing.B) {
	bld, x := NewGraph("benchnet", Shape{C: 3, H: 16, W: 16})
	x = bld.Conv(x, "c1", 8, 3, 1, 1)
	x = bld.ReLU(x, "r1")
	x = bld.Conv(x, "c2", 16, 3, 2, 1)
	x = bld.ReLU(x, "r2")
	x = bld.GlobalAvgPool(x, "gap")
	x = bld.Flatten(x, "fl")
	x = bld.Linear(x, "fc", 10)
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	e, err := exec.NewExecutor(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	in, err := e.RandomInput(8)
	if err != nil {
		b.Fatal(err)
	}
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Gradients(in, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataParallelStep measures one full data-parallel training step
// (worker gradients + real ring all-reduce + update) across worker
// counts.
func BenchmarkDataParallelStep(b *testing.B) {
	bld, x := NewGraph("dpbench", Shape{C: 2, H: 8, W: 8})
	x = bld.Conv(x, "c1", 4, 3, 1, 1)
	x = bld.ReLU(x, "r1")
	x = bld.GlobalAvgPool(x, "gap")
	x = bld.Flatten(x, "fl")
	x = bld.Linear(x, "fc", 3)
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			task, err := train.NewPrototypeTask(g, 3, 0.3, 1)
			if err != nil {
				b.Fatal(err)
			}
			src := task.Source(4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := train.DataParallel(g, train.Config{Workers: workers, LR: 0.05, Seed: 1}, 1, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectInferenceSweep measures dataset generation across
// batch counts.
func BenchmarkCollectInferenceSweep(b *testing.B) {
	for _, nModels := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("models=%d", nModels), func(b *testing.B) {
			sc := DefaultInferenceScenario(A100(), 1)
			sc.Models = sc.Models[:nModels]
			sc.Images = []int{64, 128}
			sc.Batches = []int{1, 8, 64}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CollectInference(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
