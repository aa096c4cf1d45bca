package exec

import (
	"testing"

	"convmeter/internal/graph"
	"convmeter/internal/testrace"
)

// assertZeroAllocs warms f (pool start, task pools, amortised scratch
// growth) and then pins 0 allocs/op — the contract the hotpath analyzer
// enforces statically on the declared kernel roots.
func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	for i := 0; i < 3; i++ {
		f()
	}
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s allocates %.2f/op, want 0", name, n)
	}
}

// TestKernelsZeroAllocs pins the steady-state allocation contract of
// every forward kernel declared as a hotpath root in lint.config.
func TestKernelsZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	// One conv per conv2d path; each must stay on the path it names.
	for _, c := range []struct {
		path      convPath
		inC, outC int
		k, pad    int
		groups    int
	}{
		{convIm2col, 2, 3, 3, 1, 1},
		{convPointwise, 4, 6, 1, 0, 1},
		{convDepthwise, 4, 8, 3, 1, 4},
	} {
		op := &graph.Conv2dOp{InC: c.inC, OutC: c.outC, KH: c.k, KW: c.k,
			StrideH: 1, StrideW: 1, PadH: c.pad, PadW: c.pad,
			DilationH: 1, DilationW: 1, Groups: c.groups, Bias: true}
		if got := pathOf(op); got != c.path {
			t.Fatalf("%s conv case takes the %s path", convPathNames[c.path], convPathNames[got])
		}
		in := NewTensor(2, graph.Shape{C: c.inC, H: 5, W: 5})
		out := NewTensor(2, graph.Shape{C: c.outC, H: 5, W: 5})
		w := make([]float32, c.outC*c.inC/c.groups*c.k*c.k)
		bias := make([]float32, c.outC)
		fill(in.Data)
		fill(w)
		assertZeroAllocs(t, "conv2d ("+convPathNames[c.path]+")", func() {
			conv2d(in, op, w, bias, out)
		})
	}

	linOp := &graph.LinearOp{In: 8, Out: 4, Bias: true}
	linIn := NewTensor(2, graph.Shape{C: 8, H: 1, W: 1})
	linOut := NewTensor(2, graph.Shape{C: 4, H: 1, W: 1})
	linW := make([]float32, 8*4)
	linB := make([]float32, 4)
	fill(linIn.Data)
	fill(linW)
	assertZeroAllocs(t, "linear", func() {
		linear(linIn, linOp, linW, linB, linOut)
	})

	tokOp := &graph.TokenLinearOp{In: 4, Out: 6, Bias: true}
	tokIn := NewTensor(2, graph.Shape{C: 4, H: 3, W: 1})
	tokOut := NewTensor(2, graph.Shape{C: 6, H: 3, W: 1})
	tokW := make([]float32, 4*6)
	tokB := make([]float32, 6)
	fill(tokIn.Data)
	fill(tokW)
	assertZeroAllocs(t, "tokenLinear", func() {
		tokenLinear(tokIn, tokOp, tokW, tokB, tokOut)
	})

	normIn := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	normOut := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	scale := []float32{1, 2, 0.5}
	shift := []float32{0, 1, -1}
	fill(normIn.Data)
	assertZeroAllocs(t, "batchNorm", func() {
		batchNorm(normIn, scale, shift, normOut)
	})
	assertZeroAllocs(t, "layerNorm", func() {
		layerNorm(normIn, scale, shift, normOut)
	})
	assertZeroAllocs(t, "activation", func() {
		activation(normIn, graph.ReLU, normOut)
	})

	poolOp := &graph.Pool2dOp{PoolKind: graph.MaxPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	poolOut := NewTensor(2, graph.Shape{C: 3, H: 2, W: 2})
	assertZeroAllocs(t, "pool2d", func() {
		pool2d(normIn, poolOp, poolOut)
	})
	gapOut := NewTensor(2, graph.Shape{C: 3, H: 1, W: 1})
	assertZeroAllocs(t, "adaptiveAvgPool", func() {
		adaptiveAvgPool(normIn, gapOut)
	})

	attnOp := &graph.AttentionCoreOp{Dim: 4, Heads: 2}
	attnIn := NewTensor(2, graph.Shape{C: 12, H: 3, W: 1})
	attnOut := NewTensor(2, graph.Shape{C: 4, H: 3, W: 1})
	fill(attnIn.Data)
	assertZeroAllocs(t, "attentionCore", func() {
		attentionCore(attnIn, attnOp, attnOut)
	})

	tokensOp := &graph.ToTokensOp{Dim: 3, Tokens: 5}
	tokensIn := NewTensor(2, graph.Shape{C: 3, H: 2, W: 2})
	tokensOut := NewTensor(2, graph.Shape{C: 3, H: 5, W: 1})
	cls := make([]float32, 3)
	pos := make([]float32, 3*5)
	fill(tokensIn.Data)
	assertZeroAllocs(t, "toTokens", func() {
		toTokens(tokensIn, tokensOp, cls, pos, tokensOut)
	})
}

// TestBackwardKernelsZeroAllocs pins the same contract on the backward
// kernel roots used by the training path.
func TestBackwardKernelsZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	convOp := &graph.Conv2dOp{InC: 2, OutC: 3, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
		DilationH: 1, DilationW: 1, Groups: 1, Bias: true}
	in := NewTensor(2, graph.Shape{C: 2, H: 4, W: 4})
	dIn := NewTensor(2, graph.Shape{C: 2, H: 4, W: 4})
	dOut := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	w := make([]float32, 3*2*3*3)
	dW := make([]float32, len(w))
	dB := make([]float32, 3)
	fill(in.Data)
	fill(dOut.Data)
	fill(w)
	assertZeroAllocs(t, "conv2dBackward", func() {
		conv2dBackward(in, convOp, w, dOut, dIn, dW, dB)
	})

	linOp := &graph.LinearOp{In: 8, Out: 4, Bias: true}
	linIn := NewTensor(2, graph.Shape{C: 8, H: 1, W: 1})
	linDIn := NewTensor(2, graph.Shape{C: 8, H: 1, W: 1})
	linDOut := NewTensor(2, graph.Shape{C: 4, H: 1, W: 1})
	linW := make([]float32, 8*4)
	linDW := make([]float32, len(linW))
	linDB := make([]float32, 4)
	fill(linIn.Data)
	fill(linDOut.Data)
	fill(linW)
	assertZeroAllocs(t, "linearBackward", func() {
		linearBackward(linIn, linOp, linW, linDOut, linDIn, linDW, linDB)
	})

	act := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	actOut := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	actDOut := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	actDIn := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	fill(act.Data)
	fill(actDOut.Data)
	activation(act, graph.ReLU, actOut)
	assertZeroAllocs(t, "activationBackward", func() {
		if err := activationBackward(graph.ReLU, act, actOut, actDOut, actDIn); err != nil {
			t.Fatal(err)
		}
	})

	scale := []float32{1, 2, 0.5}
	dScale := make([]float32, 3)
	dShift := make([]float32, 3)
	assertZeroAllocs(t, "batchNormBackward", func() {
		batchNormBackward(act, scale, actDOut, actDIn, dScale, dShift)
	})

	poolOp := &graph.Pool2dOp{PoolKind: graph.MaxPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	poolOut := NewTensor(2, graph.Shape{C: 3, H: 2, W: 2})
	poolDOut := NewTensor(2, graph.Shape{C: 3, H: 2, W: 2})
	pool2d(act, poolOp, poolOut)
	fill(poolDOut.Data)
	assertZeroAllocs(t, "pool2dBackward", func() {
		pool2dBackward(act, poolOp, poolOut, poolDOut, actDIn)
	})

	gapDOut := NewTensor(2, graph.Shape{C: 3, H: 1, W: 1})
	fill(gapDOut.Data)
	assertZeroAllocs(t, "adaptiveAvgPoolBackward", func() {
		adaptiveAvgPoolBackward(act, gapDOut, actDIn)
	})

	gate := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	dFull := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	dGate := NewTensor(2, graph.Shape{C: 3, H: 4, W: 4})
	fill(gate.Data)
	assertZeroAllocs(t, "mulBackward", func() {
		mulBackward(act, gate, actDOut, dFull, dGate)
	})
}

// fill writes a deterministic non-trivial pattern.
func fill(v []float32) {
	for i := range v {
		v[i] = float32(i%7) - 3
	}
}
