package exec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"convmeter/internal/graph"
	"convmeter/internal/models"
)

// runModel executes a zoo model at a small image size and returns the
// output tensor.
func runModel(t *testing.T, name string, img, batch int) *Tensor {
	t.Helper()
	g, err := models.Build(name, img)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(g, 42)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(batch)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkFinite(t *testing.T, name string, out *Tensor) {
	t.Helper()
	for i, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("%s: non-finite output at %d: %g", name, i, v)
		}
	}
}

func TestZooModelsActuallyExecute(t *testing.T) {
	// Every architecture family must run end to end — proving the graphs
	// are real executable networks, not just FLOPs bookkeeping. Small
	// images keep the naive kernels fast.
	cases := []struct {
		name string
		img  int
	}{
		{"resnet18", 32},
		{"resnet50", 32},
		{"mobilenet_v2", 32},
		{"mobilenet_v3_small", 32},
		{"squeezenet1_1", 48},
		{"efficientnet_b0", 32},
		{"regnet_y_400mf", 32},
		{"densenet121", 32},
		{"alexnet", 64},
		{"vgg11", 32},
		{"vit_b_32", 64},
		{"shufflenet_v2_x1_0", 32}, // slice + shuffle ops
		{"mnasnet1_0", 32},
		{"convnext_tiny", 32}, // spatial layer norm + layer scale
	}
	for _, c := range cases {
		out := runModel(t, c.name, c.img, 2)
		if out.Shape != (graph.Shape{C: models.NumClasses, H: 1, W: 1}) {
			t.Fatalf("%s: output shape %v", c.name, out.Shape)
		}
		if out.Batch != 2 {
			t.Fatalf("%s: batch %d", c.name, out.Batch)
		}
		checkFinite(t, c.name, out)
	}
}

func TestExecutionShapeMatchesStaticInference(t *testing.T) {
	// The executed output of every node range endpoint must equal the
	// statically inferred shape — exercised indirectly through the final
	// output above; here we check an interior branchy case explicitly.
	g, err := models.BuildBlock("MBConv", 14)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e.RandomInput(3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	staticOut, err := g.OutputShape()
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape != staticOut {
		t.Fatalf("executed %v vs static %v", out.Shape, staticOut)
	}
	checkFinite(t, "MBConv", out)
}

func TestExecutorDeterministic(t *testing.T) {
	a := runModel(t, "resnet18", 32, 1)
	b := runModel(t, "resnet18", 32, 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("output differs at %d across identical seeds", i)
		}
	}
}

func TestExecutorSeedChangesWeights(t *testing.T) {
	g, err := models.Build("resnet18", 32)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := NewExecutor(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewExecutor(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := e1.RandomInput(1)
	if err != nil {
		t.Fatal(err)
	}
	o1, err := e1.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := e2.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range o1.Data {
		if o1.Data[i] != o2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical outputs")
	}
}

// TestExecutorWeightsPinned pins the initial weights of two zoo models
// to checksums recorded when NewExecutor still initialised its nodes
// one after another, and compares every weight with a serial pass over
// initNode: parallel initialisation must be bit-identical.
func TestExecutorWeightsPinned(t *testing.T) {
	for _, c := range []struct {
		model string
		sum   float64
	}{
		{"resnet18", 209959.8888271406},
		{"mobilenet_v2", 810986.3189162839},
	} {
		g, err := models.Build(c.model, 32)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewExecutor(g, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.WeightChecksum(); got != c.sum {
			t.Errorf("%s weight checksum %.17g, pinned %.17g", c.model, got, c.sum)
		}
		for i, n := range g.Nodes {
			want := initNode(n.Op, rand.New(rand.NewSource(7+int64(i)*1000003)))
			if !slices.Equal(e.weights[i].w, want.w) || !slices.Equal(e.weights[i].b, want.b) {
				t.Fatalf("%s node %d (%s): parallel init differs from serial", c.model, i, n.Name)
			}
		}
	}
}

func TestExecutorBatchConsistency(t *testing.T) {
	// Running a batch of 2 identical images must produce two identical
	// outputs (no cross-batch leakage in any kernel).
	g, err := models.Build("mobilenet_v2", 32)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	single, err := e.RandomInput(1)
	if err != nil {
		t.Fatal(err)
	}
	double := NewTensor(2, single.Shape)
	copy(double.image(0), single.image(0))
	copy(double.image(1), single.image(0))
	out, err := e.Run(double)
	if err != nil {
		t.Fatal(err)
	}
	n := int(out.Shape.Elems())
	for i := 0; i < n; i++ {
		if out.Data[i] != out.Data[n+i] {
			t.Fatalf("batch elements diverged at %d", i)
		}
	}
	// And they must match the single-image run exactly.
	sOut, err := e.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if out.Data[i] != sOut.Data[i] {
			t.Fatalf("batched result differs from single run at %d", i)
		}
	}
}

func TestExecutorRejectsBadInput(t *testing.T) {
	g, err := models.Build("resnet18", 32)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrong := NewTensor(1, graph.Shape{C: 3, H: 64, W: 64})
	if _, err := e.Run(wrong); err == nil {
		t.Fatal("expected input-shape error")
	}
}

func TestExecutorRejectsInvalidGraph(t *testing.T) {
	g, err := models.Build("resnet18", 32)
	if err != nil {
		t.Fatal(err)
	}
	g.Nodes[1].Out.C++
	if _, err := NewExecutor(g, 1); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestShuffleChannelsPermutation(t *testing.T) {
	// Build a minimal graph exercising slice + shuffle and verify the
	// exact channel permutation against PyTorch's channel_shuffle rule.
	b, x := graph.NewBuilder("shuf", graph.Shape{C: 4, H: 1, W: 1})
	x = b.ShuffleChannels(x, "shuffle", 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := NewTensor(1, graph.Shape{C: 4, H: 1, W: 1})
	copy(in.Data, []float32{0, 1, 2, 3})
	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	// groups=2, cpg=2: channel gi*2+k → k*2+gi: [0,1,2,3] → [0,2,1,3].
	want := []float32{0, 2, 1, 3}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("shuffle output %v, want %v", out.Data, want)
		}
	}
}

func TestSliceChannelsExtraction(t *testing.T) {
	b, x := graph.NewBuilder("slice", graph.Shape{C: 4, H: 1, W: 2})
	x = b.SliceChannels(x, "half", 2, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := NewTensor(1, graph.Shape{C: 4, H: 1, W: 2})
	copy(in.Data, []float32{0, 1, 2, 3, 4, 5, 6, 7})
	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 5, 6, 7}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("slice output %v, want %v", out.Data, want)
		}
	}
}

func TestNewTensorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTensor(0, graph.Shape{C: 1, H: 1, W: 1})
}
