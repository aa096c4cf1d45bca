package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"convmeter/internal/graph"
)

func almost(a, b float32) bool {
	return math.Abs(float64(a-b)) <= 1e-4*math.Max(1, math.Abs(float64(b)))
}

func TestConv2dIdentityKernel(t *testing.T) {
	// A 1x1 convolution with weight 1 must copy the input.
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	conv2d(in, op, []float32{1}, nil, out)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv mismatch at %d: %g", i, out.Data[i])
		}
	}
}

func TestConv2dHandComputed(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, stride 1, no pad → 2x2 sums.
	in := NewTensor(1, graph.Shape{C: 1, H: 3, W: 3})
	copy(in.Data, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 2, KW: 2, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	conv2d(in, op, []float32{1, 1, 1, 1}, []float32{0.5}, out)
	want := []float32{1 + 2 + 4 + 5 + 0.5, 2 + 3 + 5 + 6 + 0.5, 4 + 5 + 7 + 8 + 0.5, 5 + 6 + 8 + 9 + 0.5}
	for i := range want {
		if !almost(out.Data[i], want[i]) {
			t.Fatalf("conv out[%d] = %g, want %g", i, out.Data[i], want[i])
		}
	}
}

func TestConv2dPaddingAndStride(t *testing.T) {
	// 2x2 input, 3x3 kernel of ones, pad 1, stride 2 → 1x1 output = sum.
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	w := make([]float32, 9)
	for i := range w {
		w[i] = 1
	}
	conv2d(in, op, w, nil, out)
	if !almost(out.Data[0], 10) {
		t.Fatalf("padded conv = %g, want 10", out.Data[0])
	}
}

func TestConv2dGrouped(t *testing.T) {
	// Depthwise 2-channel conv: each channel scaled independently.
	in := NewTensor(1, graph.Shape{C: 2, H: 1, W: 1})
	copy(in.Data, []float32{3, 5})
	op := &graph.Conv2dOp{InC: 2, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 2}
	out := NewTensor(1, graph.Shape{C: 2, H: 1, W: 1})
	conv2d(in, op, []float32{2, 10}, nil, out)
	if out.Data[0] != 6 || out.Data[1] != 50 {
		t.Fatalf("grouped conv = %v", out.Data)
	}
}

func TestConv2dDilated(t *testing.T) {
	// Dilation 2 with a 2x2 kernel of ones samples corners of a 3x3 grid.
	in := NewTensor(1, graph.Shape{C: 1, H: 3, W: 3})
	copy(in.Data, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 2, KW: 2, StrideH: 1, StrideW: 1, DilationH: 2, DilationW: 2, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	conv2d(in, op, []float32{1, 1, 1, 1}, nil, out)
	if !almost(out.Data[0], 1+3+7+9) {
		t.Fatalf("dilated conv = %g, want 20", out.Data[0])
	}
}

func TestConv2dAsymmetricKernel(t *testing.T) {
	// A 1x3 kernel of ones with pad (0,1): row sums with zero padding —
	// the Inception factorised-convolution shape.
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 3})
	copy(in.Data, []float32{
		1, 2, 3,
		4, 5, 6,
	})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 1, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 3})
	conv2d(in, op, []float32{1, 1, 1}, nil, out)
	want := []float32{
		0 + 1 + 2, 1 + 2 + 3, 2 + 3 + 0,
		0 + 4 + 5, 4 + 5 + 6, 5 + 6 + 0,
	}
	for i := range want {
		if !almost(out.Data[i], want[i]) {
			t.Fatalf("asymmetric conv out = %v, want %v", out.Data, want)
		}
	}
}

func TestConv2dStridedAsymmetric(t *testing.T) {
	// Different strides per axis: 1x1 kernel, stride (2,1).
	in := NewTensor(1, graph.Shape{C: 1, H: 4, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	op := &graph.Conv2dOp{InC: 1, OutC: 1, KH: 1, KW: 1, StrideH: 2, StrideW: 1, DilationH: 1, DilationW: 1, Groups: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	conv2d(in, op, []float32{1}, nil, out)
	want := []float32{1, 2, 5, 6}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("strided conv out = %v, want %v", out.Data, want)
		}
	}
}

func TestLinearKernel(t *testing.T) {
	in := NewTensor(2, graph.Shape{C: 3, H: 1, W: 1})
	copy(in.Data, []float32{1, 2, 3 /* batch 1 */, 4, 5, 6 /* batch 2 */})
	op := &graph.LinearOp{In: 3, Out: 2, Bias: true}
	// W = [[1,0,0],[0,1,1]], b = [10, 20]
	w := []float32{1, 0, 0, 0, 1, 1}
	b := []float32{10, 20}
	out := NewTensor(2, graph.Shape{C: 2, H: 1, W: 1})
	linear(in, op, w, b, out)
	want := []float32{11, 25, 14, 31}
	for i := range want {
		if !almost(out.Data[i], want[i]) {
			t.Fatalf("linear out = %v, want %v", out.Data, want)
		}
	}
}

func TestTokenLinearKernel(t *testing.T) {
	// 2 tokens, dim 2 → out dim 1 with W=[1,1]: per-token sums.
	in := NewTensor(1, graph.Shape{C: 2, H: 2, W: 1})
	// layout: channel-major — c0: tokens [1, 2]; c1: tokens [3, 4]
	copy(in.Data, []float32{1, 2, 3, 4})
	op := &graph.TokenLinearOp{In: 2, Out: 1}
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 1})
	tokenLinear(in, op, []float32{1, 1}, nil, out)
	if !almost(out.Data[0], 4) || !almost(out.Data[1], 6) {
		t.Fatalf("token linear = %v, want [4 6]", out.Data)
	}
}

func TestBatchNormKernel(t *testing.T) {
	in := NewTensor(1, graph.Shape{C: 2, H: 1, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	out := NewTensor(1, in.Shape)
	batchNorm(in, []float32{2, 0.5}, []float32{1, -1}, out)
	want := []float32{3, 5, 0.5, 1}
	for i := range want {
		if !almost(out.Data[i], want[i]) {
			t.Fatalf("bn out = %v, want %v", out.Data, want)
		}
	}
}

func TestLayerNormKernel(t *testing.T) {
	// One token with values [1, 3]: mean 2, var 1 → normalised [-1, 1].
	in := NewTensor(1, graph.Shape{C: 2, H: 1, W: 1})
	copy(in.Data, []float32{1, 3})
	out := NewTensor(1, in.Shape)
	layerNorm(in, []float32{1, 1}, []float32{0, 0}, out)
	if !almost(out.Data[0], -1) || !almost(out.Data[1], 1) {
		t.Fatalf("ln out = %v, want [-1 1]", out.Data)
	}
}

func TestActivationNumerics(t *testing.T) {
	cases := []struct {
		fn   graph.ActFunc
		x    float32
		want float32
	}{
		{graph.ReLU, -2, 0},
		{graph.ReLU, 2, 2},
		{graph.ReLU6, 7, 6},
		{graph.Sigmoid, 0, 0.5},
		{graph.SiLU, 0, 0},
		{graph.HardSigmoid, 3, 1},
		{graph.HardSigmoid, -3, 0},
		{graph.HardSwish, 3, 3},
		{graph.Tanh, 0, 0},
		{graph.GELU, 0, 0},
	}
	for _, c := range cases {
		if got := applyAct(c.fn, c.x); !almost(got, c.want) {
			t.Errorf("%s(%g) = %g, want %g", c.fn, c.x, got, c.want)
		}
	}
	// GELU(x) ≈ x for large positive x, ≈ 0 for large negative.
	if g := applyAct(graph.GELU, 10); !almost(g, 10) {
		t.Errorf("GELU(10) = %g", g)
	}
	if g := applyAct(graph.GELU, -10); math.Abs(float64(g)) > 1e-3 {
		t.Errorf("GELU(-10) = %g", g)
	}
}

func TestMaxAndAvgPool(t *testing.T) {
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	mp := &graph.Pool2dOp{PoolKind: graph.MaxPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	out := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	pool2d(in, mp, out)
	if out.Data[0] != 4 {
		t.Fatalf("maxpool = %g", out.Data[0])
	}
	ap := &graph.Pool2dOp{PoolKind: graph.AvgPool, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	pool2d(in, ap, out)
	if !almost(out.Data[0], 2.5) {
		t.Fatalf("avgpool = %g", out.Data[0])
	}
}

func TestAdaptiveAvgPoolGlobal(t *testing.T) {
	in := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	copy(in.Data, []float32{1, 2, 3, 4})
	out := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	adaptiveAvgPool(in, out)
	if !almost(out.Data[0], 2.5) {
		t.Fatalf("global pool = %g", out.Data[0])
	}
}

func TestAdaptiveAvgPoolUpsample(t *testing.T) {
	// 1x1 → 2x2 replication (the AlexNet-at-small-image case).
	in := NewTensor(1, graph.Shape{C: 1, H: 1, W: 1})
	in.Data[0] = 7
	out := NewTensor(1, graph.Shape{C: 1, H: 2, W: 2})
	adaptiveAvgPool(in, out)
	for _, v := range out.Data {
		if v != 7 {
			t.Fatalf("upsampled pool = %v", out.Data)
		}
	}
}

func TestAttentionUniformValues(t *testing.T) {
	// If all keys are equal, attention weights are uniform and the output
	// equals the mean of the values.
	dim, T := 2, 3
	in := NewTensor(1, graph.Shape{C: 3 * dim, H: T, W: 1})
	// q arbitrary, k identical per token, v = token index.
	for d := 0; d < dim; d++ {
		for tok := 0; tok < T; tok++ {
			in.Set(0, d, tok, 0, float32(d+1))       // q
			in.Set(0, dim+d, tok, 0, 1)              // k constant
			in.Set(0, 2*dim+d, tok, 0, float32(tok)) // v
		}
	}
	op := &graph.AttentionCoreOp{Dim: dim, Heads: 1}
	out := NewTensor(1, graph.Shape{C: dim, H: T, W: 1})
	attentionCore(in, op, out)
	wantMean := float32(0+1+2) / 3
	for d := 0; d < dim; d++ {
		for tok := 0; tok < T; tok++ {
			if !almost(out.At(0, d, tok, 0), wantMean) {
				t.Fatalf("attention out[%d,%d] = %g, want %g", d, tok, out.At(0, d, tok, 0), wantMean)
			}
		}
	}
}

func TestAttentionSoftmaxSelectivity(t *testing.T) {
	// With one key aligned to the query and others orthogonal, the output
	// must lean strongly toward the aligned token's value.
	dim, T := 2, 2
	in := NewTensor(1, graph.Shape{C: 3 * dim, H: T, W: 1})
	// Query for token 0 = [10, 0]; keys: token0=[10,0], token1=[-10,0].
	in.Set(0, 0, 0, 0, 10)
	in.Set(0, dim, 0, 0, 10)
	in.Set(0, dim, 1, 0, -10)
	// Values: token0 = 1, token1 = -1 in channel 0.
	in.Set(0, 2*dim, 0, 0, 1)
	in.Set(0, 2*dim, 1, 0, -1)
	op := &graph.AttentionCoreOp{Dim: dim, Heads: 1}
	out := NewTensor(1, graph.Shape{C: dim, H: T, W: 1})
	attentionCore(in, op, out)
	if out.At(0, 0, 0, 0) < 0.99 {
		t.Fatalf("attention not selective: %g", out.At(0, 0, 0, 0))
	}
}

func TestToTokensLayout(t *testing.T) {
	in := NewTensor(1, graph.Shape{C: 2, H: 1, W: 2}) // 2 patches, dim 2
	copy(in.Data, []float32{1, 2, 3, 4})              // c0: [1,2], c1: [3,4]
	op := &graph.ToTokensOp{Dim: 2, Tokens: 3}
	pos := make([]float32, 3*2) // zero positions
	cls := []float32{9, 8}
	out := NewTensor(1, graph.Shape{C: 2, H: 3, W: 1})
	toTokens(in, op, cls, pos, out)
	// token 0 = class token; tokens 1,2 = patches.
	if out.At(0, 0, 0, 0) != 9 || out.At(0, 1, 0, 0) != 8 {
		t.Fatal("class token misplaced")
	}
	if out.At(0, 0, 1, 0) != 1 || out.At(0, 0, 2, 0) != 2 {
		t.Fatal("patch channel 0 misplaced")
	}
	if out.At(0, 1, 1, 0) != 3 || out.At(0, 1, 2, 0) != 4 {
		t.Fatal("patch channel 1 misplaced")
	}
}

// conv2dDirect is the reference convolution: the naive direct loop the
// engine ran before conv2d gained its im2col/GEMM, pointwise and
// depthwise paths. It is kept serial and obviously correct as the
// oracle every fast path is checked against.
func conv2dDirect(in *Tensor, op *graph.Conv2dOp, weight, bias []float32, out *Tensor) {
	icPerG, ocPerG := op.InC/op.Groups, op.OutC/op.Groups
	kArea := op.KH * op.KW
	for b := 0; b < in.Batch; b++ {
		for oc := 0; oc < op.OutC; oc++ {
			g := oc / ocPerG
			icBase := g * icPerG
			wBase := oc * icPerG * kArea
			outPlane := out.channel(b, oc)
			var bv float32
			if bias != nil {
				bv = bias[oc]
			}
			for oh := 0; oh < out.Shape.H; oh++ {
				for ow := 0; ow < out.Shape.W; ow++ {
					acc := bv
					for ic := 0; ic < icPerG; ic++ {
						inPlane := in.channel(b, icBase+ic)
						wRow := weight[wBase+ic*kArea:]
						for kh := 0; kh < op.KH; kh++ {
							ih := oh*op.StrideH - op.PadH + kh*op.DilationH
							if ih < 0 || ih >= in.Shape.H {
								continue
							}
							rowOff := ih * in.Shape.W
							kOff := kh * op.KW
							for kw := 0; kw < op.KW; kw++ {
								iw := ow*op.StrideW - op.PadW + kw*op.DilationW
								if iw < 0 || iw >= in.Shape.W {
									continue
								}
								acc += inPlane[rowOff+iw] * wRow[kOff+kw]
							}
						}
					}
					outPlane[oh*out.Shape.W+ow] = acc
				}
			}
		}
	}
}

// convCase is one differential configuration: per-group channel counts
// (so any groups value is valid), geometry, batch and whether the conv
// has a bias.
type convCase struct {
	name                 string
	groups, icPerG       int
	ocPerG               int
	h, w                 int
	kh, kw               int
	strideH, strideW     int
	padH, padW           int
	dilationH, dilationW int
	batch                int
	bias                 bool
}

// convCases covers every conv2d path and its edges: pixel counts that
// are not a multiple of convTile, tiles of a few pixels, oc counts that
// are not a multiple of 4 or of convChunk, batch 3, bias nil and set.
var convCases = []convCase{
	{"3x3_s1_p1", 1, 5, 7, 13, 11, 3, 3, 1, 1, 1, 1, 1, 1, 3, true},
	{"3x3_s2_p1", 1, 4, 6, 15, 15, 3, 3, 2, 2, 1, 1, 1, 1, 1, false},
	{"1x1_s1_pointwise", 1, 9, 70, 12, 12, 1, 1, 1, 1, 0, 0, 1, 1, 3, false},
	{"1x1_s2_gemm", 1, 6, 5, 9, 9, 1, 1, 2, 2, 0, 0, 1, 1, 2, true},
	{"7x7_s2_p3", 1, 3, 8, 20, 20, 7, 7, 2, 2, 3, 3, 1, 1, 1, true},
	{"1x7", 1, 4, 4, 9, 10, 1, 7, 1, 1, 0, 3, 1, 1, 3, false},
	{"7x1", 1, 4, 3, 10, 9, 7, 1, 1, 1, 3, 0, 1, 1, 1, true},
	{"3x3_dilation2", 1, 3, 5, 11, 11, 3, 3, 1, 1, 2, 2, 2, 2, 2, false},
	{"grouped_g2", 2, 3, 4, 10, 10, 3, 3, 1, 1, 1, 1, 1, 1, 3, true},
	{"depthwise_m1", 6, 1, 1, 13, 11, 3, 3, 1, 1, 1, 1, 1, 1, 3, true},
	{"depthwise_m1_s2", 5, 1, 1, 14, 9, 3, 3, 2, 2, 1, 1, 1, 1, 1, false},
	{"depthwise_m2_5x5", 4, 1, 2, 12, 12, 5, 5, 2, 2, 2, 2, 1, 1, 2, true},
	{"dense_inC1", 1, 1, 6, 10, 10, 3, 3, 1, 1, 1, 1, 1, 1, 3, false},
	{"large_tiles", 1, 3, 4, 19, 17, 3, 3, 1, 1, 1, 1, 1, 1, 1, true},
	{"3x3_narrow_6px", 1, 5, 70, 2, 3, 3, 3, 1, 1, 1, 1, 1, 1, 2, true},
	{"1x1_pointwise_tile_tail", 1, 6, 9, 7, 19, 1, 1, 1, 1, 0, 0, 1, 1, 1, false},
}

func (c convCase) op() *graph.Conv2dOp {
	return &graph.Conv2dOp{
		InC: c.groups * c.icPerG, OutC: c.groups * c.ocPerG,
		KH: c.kh, KW: c.kw, StrideH: c.strideH, StrideW: c.strideW,
		PadH: c.padH, PadW: c.padW, DilationH: c.dilationH, DilationW: c.dilationW,
		Groups: c.groups, Bias: c.bias,
	}
}

// checkConvAgainstOracle runs conv2d and the oracle on seeded data and
// bounds every element's difference by 4·2⁻²³·√K·Σ|w·x| (bias
// included in the sum), the float32 error bound of a K-term reduction
// summed in any order.
func checkConvAgainstOracle(t *testing.T, c convCase, seed int64) {
	t.Helper()
	op := c.op()
	inShape := graph.Shape{C: op.InC, H: c.h, W: c.w}
	outShape, err := op.OutShape([]graph.Shape{inShape})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	in := NewTensor(c.batch, inShape)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}
	weight := make([]float32, op.OutC*c.icPerG*c.kh*c.kw)
	for i := range weight {
		weight[i] = float32(rng.NormFloat64())
	}
	var bias []float32
	if c.bias {
		bias = make([]float32, op.OutC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
	}
	got := NewTensor(c.batch, outShape)
	for i := range got.Data {
		got.Data[i] = float32(math.NaN()) // every element must be written
	}
	conv2d(in, op, weight, bias, got)
	want := NewTensor(c.batch, outShape)
	conv2dDirect(in, op, weight, bias, want)

	// Σ|w·x| per element: the oracle over absolute values.
	absIn, absW := NewTensor(c.batch, inShape), make([]float32, len(weight))
	for i, v := range in.Data {
		absIn.Data[i] = float32(math.Abs(float64(v)))
	}
	for i, v := range weight {
		absW[i] = float32(math.Abs(float64(v)))
	}
	var absB []float32
	for _, v := range bias {
		absB = append(absB, float32(math.Abs(float64(v))))
	}
	mag := NewTensor(c.batch, outShape)
	conv2dDirect(absIn, op, absW, absB, mag)

	k := float64(c.icPerG * c.kh * c.kw)
	rel := 4 * math.Pow(2, -23) * math.Sqrt(k)
	for i := range want.Data {
		g, w := float64(got.Data[i]), float64(want.Data[i])
		if limit := rel * float64(mag.Data[i]); !(math.Abs(g-w) <= limit) {
			b := i / int(outShape.Elems())
			r := i % int(outShape.Elems())
			hw := outShape.H * outShape.W
			t.Fatalf("%s (seed %d): out[b=%d c=%d h=%d w=%d] = %.9g, oracle %.9g, |diff| %.3g > bound %.3g",
				c.name, seed, b, r/hw, r%hw/outShape.W, r%outShape.W, g, w, math.Abs(g-w), limit)
		}
	}
}

// TestConv2dMatchesOracle checks every conv2d path against the direct
// loop on the table of shapes, over a few seeds.
func TestConv2dMatchesOracle(t *testing.T) {
	for _, c := range convCases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				checkConvAgainstOracle(t, c, seed)
			}
		})
	}
}

var convPathNames = [...]string{convIm2col: "im2col", convPointwise: "pointwise", convDepthwise: "depthwise"}

// TestConv2dPathSelection pins which path each table case takes, so a
// case meant for one path cannot silently drift to another. InC=1 with
// groups=1 is dense, not depthwise.
func TestConv2dPathSelection(t *testing.T) {
	want := map[string]convPath{
		"1x1_s1_pointwise": convPointwise,
		"1x1_s2_gemm":      convIm2col,
		"depthwise_m1":     convDepthwise,
		"depthwise_m1_s2":  convDepthwise,
		"depthwise_m2_5x5": convDepthwise,
		"dense_inC1":       convIm2col,
		"grouped_g2":       convIm2col,
		"3x3_s1_p1":        convIm2col,
	}
	for _, c := range convCases {
		w, ok := want[c.name]
		if !ok {
			continue
		}
		if got := pathOf(c.op()); got != w {
			t.Errorf("%s takes the %s path, want %s", c.name, convPathNames[got], convPathNames[w])
		}
	}
}

// FuzzConv2d differentially fuzzes conv2d against the oracle. Channel
// counts are per group, so every groups value is valid; geometry that
// yields no output pixel is skipped. The seed corpus is convCases.
func FuzzConv2d(f *testing.F) {
	for _, c := range convCases {
		f.Add(uint8(c.groups), uint8(c.icPerG), uint8(c.ocPerG), uint8(c.h), uint8(c.w),
			uint8(c.kh), uint8(c.kw), uint8(c.strideH), uint8(c.strideW), uint8(c.padH), uint8(c.padW),
			uint8(c.dilationH), uint8(c.dilationW), uint8(c.batch), c.bias, int64(len(c.name)))
	}
	f.Fuzz(func(t *testing.T, groups, icPerG, ocPerG, h, w, kh, kw, sh, sw, ph, pw, dh, dw, batch uint8, bias bool, seed int64) {
		c := convCase{
			name:   "fuzz",
			groups: 1 + int(groups)%8, icPerG: 1 + int(icPerG)%8, ocPerG: 1 + int(ocPerG)%80,
			h: 1 + int(h)%24, w: 1 + int(w)%24,
			kh: 1 + int(kh)%7, kw: 1 + int(kw)%7,
			strideH: 1 + int(sh)%3, strideW: 1 + int(sw)%3,
			padH: int(ph) % 4, padW: int(pw) % 4,
			dilationH: 1 + int(dh)%3, dilationW: 1 + int(dw)%3,
			batch: 1 + int(batch)%3, bias: bias,
		}
		if _, err := c.op().OutShape([]graph.Shape{{C: c.groups * c.icPerG, H: c.h, W: c.w}}); err != nil {
			t.Skip(fmt.Sprint("no output: ", err))
		}
		checkConvAgainstOracle(t, c, seed)
	})
}
