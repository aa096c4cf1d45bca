package exec

import (
	"math"
	"sync"

	"convmeter/internal/graph"
)

// The parallel kernels below split their work over a flattened index
// space and hand it to the persistent worker pool via a pooled task
// struct — see pool.go. Every item writes a disjoint set of output
// elements and reduces each of them in a fixed order, so scheduling
// cannot change the numerics, and the per-invocation allocation count
// is zero.
//
// conv2d takes one of three paths, chosen from the op's shape alone:
//
//   - depthwise (one input channel per group, groups > 1): item i is a
//     run of (batch, out-channel) planes — one plane, or several when
//     the maps are small — each computed by a row loop that clips each
//     kernel column's valid output range once, so the innermost loop
//     carries no bounds branch;
//   - pointwise (1×1, stride 1, no padding): the group's input planes
//     already are the K×N right-hand matrix of a GEMM, used in place;
//   - everything else: im2col + GEMM. Item i is a (batch, group,
//     out-channel chunk, output-pixel tile); it gathers its K×nt patch
//     matrix into the worker's scratch and multiplies the chunk's weight
//     rows into it.
//
// Every path accumulates each output element as bias, then its taps in
// (in-channel, kh, kw) order — the order of the direct loop kept as the
// test oracle in kernels_test.go. A padding tap contributes an exact
// zero, so where the compiler fuses no multiply-add (amd64 at its
// default GOAMD64=v1) the three paths agree with the oracle exactly.

// Fixed GEMM blocking. The pixel tile bounds an item's im2col scratch;
// the out-channel chunk splits late layers, whose few pixels make one
// tile, into enough items to spread over the pool. Neither depends on
// GOMAXPROCS, so the item set is the same on any host.
const (
	convTile  = 128 // output pixels per GEMM item
	convChunk = 64  // output channels per GEMM item; a multiple of 4
)

// depthwiseItemTaps is the work (output pixels × kernel taps) a
// depthwise item gathers before it spans several planes: the small
// maps of late layers would otherwise spend more on claiming items
// than on computing them.
const depthwiseItemTaps = 4096

// convPath is the algorithm conv2d runs for an op.
type convPath uint8

const (
	convIm2col    convPath = iota // im2col + GEMM
	convPointwise                 // GEMM straight on the input planes
	convDepthwise                 // per-plane row loop
)

// pathOf picks the conv path from the op's shape alone. Depthwise means
// one input channel per group with more than one group: a dense conv
// with InC = 1 stays on the GEMM path.
func pathOf(op *graph.Conv2dOp) convPath {
	switch {
	case op.InC/op.Groups == 1 && op.Groups > 1:
		return convDepthwise
	case op.KH == 1 && op.KW == 1 && op.StrideH == 1 && op.StrideW == 1 && op.PadH == 0 && op.PadW == 0:
		return convPointwise
	}
	return convIm2col
}

// convTask is one conv2d invocation.
type convTask struct {
	in, out        *Tensor
	op             *graph.Conv2dOp
	weight, bias   []float32
	icPerG, ocPerG int
	kArea          int
	k              int // GEMM reduction length icPerG·KH·KW
	path           convPath
	tiles, chunks  int // GEMM pixel tiles per image, oc chunks per group
	planes         int // depthwise out-channel planes per item
}

var convTaskPool = sync.Pool{New: func() any { return new(convTask) }}

// run computes item i: a depthwise plane, or one GEMM block — the
// chunk's output rows over the tile's pixels, initialised with the bias
// and accumulated from the patch matrix (or, pointwise, the input
// planes themselves).
func (t *convTask) run(i int, sc *kernelScratch) {
	if t.path == convDepthwise {
		t.runDepthwise(i)
		return
	}
	tile := i % t.tiles
	i /= t.tiles
	chunk := i % t.chunks
	i /= t.chunks
	g, b := i%t.op.Groups, i/t.op.Groups

	n := t.out.Shape.H * t.out.Shape.W
	p0 := tile * convTile
	nt := min(convTile, n-p0)
	oc0 := g*t.ocPerG + chunk*convChunk
	m := min(convChunk, t.ocPerG-chunk*convChunk)
	icBase := g * t.icPerG

	outImg := t.out.image(b)
	for o := oc0; o < oc0+m; o++ {
		row := outImg[o*n+p0 : o*n+p0+nt]
		if t.bias == nil {
			clear(row)
			continue
		}
		bv := t.bias[o]
		for j := range row {
			row[j] = bv
		}
	}
	var x []float32
	ldx := nt
	if t.path == convPointwise {
		x = t.in.image(b)[icBase*n+p0:]
		ldx = n
	} else {
		x = sc.floats(t.k * nt)
		t.im2col(x, b, icBase, p0, nt)
	}
	w, c := t.weight[oc0*t.k:(oc0+m)*t.k], outImg[oc0*n+p0:]
	gemm(m, t.k, nt, w, x, ldx, c, n)
}

// im2col gathers the patch matrix of output pixels [p0, p0+nt) of image
// b into col: row k = (ic, kh, kw) holds that tap's input value for each
// pixel, zero where the tap falls into padding.
func (t *convTask) im2col(col []float32, b, icBase, p0, nt int) {
	op := t.op
	inH, inW := t.in.Shape.H, t.in.Shape.W
	outW := t.out.Shape.W
	k := 0
	for ic := 0; ic < t.icPerG; ic++ {
		plane := t.in.channel(b, icBase+ic)
		for kh := 0; kh < op.KH; kh++ {
			for kw := 0; kw < op.KW; kw++ {
				row := col[k*nt : k*nt+nt]
				k++
				off := kw*op.DilationW - op.PadW
				// Walk the tile one output row segment at a time.
				for p, j := p0, 0; j < nt; {
					oh, ow0 := p/outW, p%outW
					ow1 := min(outW, ow0+nt-j)
					seg := row[j : j+ow1-ow0]
					p, j = p+ow1-ow0, j+ow1-ow0
					ih := oh*op.StrideH - op.PadH + kh*op.DilationH
					if ih < 0 || ih >= inH {
						clear(seg)
						continue
					}
					lo, hi := owRange(off, op.StrideW, inW, ow0, ow1)
					clear(seg[:lo-ow0])
					clear(seg[hi-ow0:])
					if lo == hi {
						continue
					}
					src := plane[ih*inW : (ih+1)*inW]
					dst := seg[lo-ow0 : hi-ow0]
					if op.StrideW == 1 {
						copy(dst, src[lo+off:hi+off])
						continue
					}
					for q := range dst {
						dst[q] = src[(lo+q)*op.StrideW+off]
					}
				}
			}
		}
	}
}

// runDepthwise computes depthwise item i: out-channel planes
// [c0, c0+planes) of one image.
func (t *convTask) runDepthwise(i int) {
	perImage := (t.op.OutC + t.planes - 1) / t.planes
	b, c0 := i/perImage, i%perImage*t.planes
	for oc := c0; oc < min(c0+t.planes, t.op.OutC); oc++ {
		t.depthwisePlane(b, oc)
	}
}

// depthwisePlane computes one (batch, out-channel) plane of a depthwise
// conv row by row. The output columns [lo, hi) where every kernel
// column reads inside the input are found once per plane; there the
// taps of a kernel row are applied in one branch-free pass, and only
// the few border columns outside it test each tap.
func (t *convTask) depthwisePlane(b, oc int) {
	op := t.op
	inH, inW := t.in.Shape.H, t.in.Shape.W
	outH, outW := t.out.Shape.H, t.out.Shape.W
	src := t.in.channel(b, oc/t.ocPerG)
	dst := t.out.channel(b, oc)
	if t.bias == nil {
		clear(dst)
	} else {
		bv := t.bias[oc]
		for j := range dst {
			dst[j] = bv
		}
	}
	w := t.weight[oc*t.kArea : (oc+1)*t.kArea]
	sw, dw, pw := op.StrideW, op.DilationW, op.PadW
	lo, hi := 0, outW
	for kw := 0; kw < op.KW; kw++ {
		lo, hi = owRange(kw*dw-pw, sw, inW, lo, hi)
	}
	if lo == hi {
		lo, hi = outW, outW // no interior: every column is a border column
	}
	for oh := 0; oh < outH; oh++ {
		o := dst[oh*outW : (oh+1)*outW]
		for kh := 0; kh < op.KH; kh++ {
			ih := oh*op.StrideH - op.PadH + kh*op.DilationH
			if ih < 0 || ih >= inH {
				continue
			}
			x := src[ih*inW : (ih+1)*inW]
			wr := w[kh*op.KW : (kh+1)*op.KW]
			for ow := 0; ow < outW; ow++ { // border columns only
				if ow == lo {
					ow = hi
					if ow == outW {
						break
					}
				}
				acc := o[ow]
				for kw, wv := range wr {
					if iw := ow*sw + kw*dw - pw; iw >= 0 && iw < inW {
						acc += wv * x[iw]
					}
				}
				o[ow] = acc
			}
			if lo == hi {
				continue
			}
			oi := o[lo:hi]
			base := lo*sw - pw
			for j := range oi {
				acc := oi[j]
				p := base + j*sw
				for _, wv := range wr {
					acc += wv * x[p]
					p += dw
				}
				oi[j] = acc
			}
		}
	}
}

// owRange returns the output columns [lo, hi) within [from, to) whose
// input column ow·stride+off lies inside [0, w); lo == hi when none
// does.
func owRange(off, stride, w, from, to int) (lo, hi int) {
	lo, hi = from, to
	if off < 0 {
		lo = max(lo, (-off+stride-1)/stride)
	}
	lo = min(lo, to)
	hi = max(lo, min(hi, (w-off+stride-1)/stride))
	return lo, hi
}

// gemm accumulates C += W·X for an m×k weight block W (row-major), a
// k×n right-hand side X with row stride ldx and an m×n block of C with
// row stride ldc. It streams X row by row: four rows of W share each
// pass over X, three k steps at a time, with the C rows as accumulators.
// Every element of C gets its k terms one by one in increasing k order.
func gemm(m, k, n int, w, x []float32, ldx int, c []float32, ldc int) {
	o := 0
	for ; o+4 <= m; o += 4 {
		c0 := c[o*ldc : o*ldc+n]
		c1 := c[(o+1)*ldc : (o+1)*ldc+n]
		c2 := c[(o+2)*ldc : (o+2)*ldc+n]
		c3 := c[(o+3)*ldc : (o+3)*ldc+n]
		w0 := w[o*k : o*k+k]
		w1 := w[(o+1)*k : (o+1)*k+k]
		w2 := w[(o+2)*k : (o+2)*k+k]
		w3 := w[(o+3)*k : (o+3)*k+k]
		q := 0
		for ; q+3 <= k; q += 3 {
			x0 := x[q*ldx : q*ldx+n]
			x1 := x[(q+1)*ldx : (q+1)*ldx+n]
			x2 := x[(q+2)*ldx : (q+2)*ldx+n]
			x1, x2 = x1[:len(x0)], x2[:len(x0)]
			c0, c1, c2, c3 := c0[:len(x0)], c1[:len(x0)], c2[:len(x0)], c3[:len(x0)]
			a0, a1, a2 := w0[q], w0[q+1], w0[q+2]
			b0, b1, b2 := w1[q], w1[q+1], w1[q+2]
			d0, d1, d2 := w2[q], w2[q+1], w2[q+2]
			e0, e1, e2 := w3[q], w3[q+1], w3[q+2]
			for j, v0 := range x0 {
				v1, v2 := x1[j], x2[j]
				c0[j] = c0[j] + a0*v0 + a1*v1 + a2*v2
				c1[j] = c1[j] + b0*v0 + b1*v1 + b2*v2
				c2[j] = c2[j] + d0*v0 + d1*v1 + d2*v2
				c3[j] = c3[j] + e0*v0 + e1*v1 + e2*v2
			}
		}
		for ; q < k; q++ {
			x0 := x[q*ldx : q*ldx+n]
			c0, c1, c2, c3 := c0[:len(x0)], c1[:len(x0)], c2[:len(x0)], c3[:len(x0)]
			a0, b0, d0, e0 := w0[q], w1[q], w2[q], w3[q]
			for j, v0 := range x0 {
				c0[j] += a0 * v0
				c1[j] += b0 * v0
				c2[j] += d0 * v0
				c3[j] += e0 * v0
			}
		}
	}
	for ; o < m; o++ {
		c0 := c[o*ldc : o*ldc+n]
		w0 := w[o*k : o*k+k]
		for q, a0 := range w0 {
			x0 := x[q*ldx : q*ldx+n]
			c0 := c0[:len(x0)]
			for j, v0 := range x0 {
				c0[j] += a0 * v0
			}
		}
	}
}

// conv2d computes a grouped, strided, padded, dilated 2-D convolution.
// Weight layout: [outC][inC/groups][KH][KW]; bias may be nil.
func conv2d(in *Tensor, op *graph.Conv2dOp, weight, bias []float32, out *Tensor) {
	t := convTaskPool.Get().(*convTask)
	icPerG, ocPerG := op.InC/op.Groups, op.OutC/op.Groups
	n := out.Shape.H * out.Shape.W
	*t = convTask{
		in: in, out: out, op: op, weight: weight, bias: bias,
		icPerG: icPerG, ocPerG: ocPerG,
		kArea:  op.KH * op.KW,
		k:      icPerG * op.KH * op.KW,
		path:   pathOf(op),
		tiles:  (n + convTile - 1) / convTile,
		chunks: (ocPerG + convChunk - 1) / convChunk,
	}
	items := in.Batch * op.Groups * t.chunks * t.tiles
	if t.path == convDepthwise {
		t.planes = max(1, depthwiseItemTaps/(n*t.kArea))
		items = in.Batch * ((op.OutC + t.planes - 1) / t.planes)
	}
	parallelRun(t, items)
	*t = convTask{}
	convTaskPool.Put(t)
}

// linearTask is one linear invocation; item i enumerates the flattened
// (batch, output) space.
type linearTask struct {
	in, out      *Tensor
	op           *graph.LinearOp
	weight, bias []float32
}

var linearTaskPool = sync.Pool{New: func() any { return new(linearTask) }}

func (t *linearTask) run(i int, _ *kernelScratch) {
	b, o := i/t.op.Out, i%t.op.Out
	x := t.in.image(b)
	row := t.weight[o*t.op.In : (o+1)*t.op.In]
	acc := float32(0)
	if t.bias != nil {
		acc = t.bias[o]
	}
	for k, v := range x {
		acc += row[k] * v
	}
	t.out.image(b)[o] = acc
}

// linear computes out = W·flatten(in) + b per batch element.
// Weight layout: [out][in].
func linear(in *Tensor, op *graph.LinearOp, weight, bias []float32, out *Tensor) {
	t := linearTaskPool.Get().(*linearTask)
	*t = linearTask{in: in, out: out, op: op, weight: weight, bias: bias}
	parallelRun(t, in.Batch*op.Out)
	*t = linearTask{}
	linearTaskPool.Put(t)
}

// tokenLinearTask is one tokenLinear invocation; item i enumerates the
// flattened (batch, output) space, each item covering every token.
type tokenLinearTask struct {
	in, out      *Tensor
	op           *graph.TokenLinearOp
	weight, bias []float32
}

var tokenLinearTaskPool = sync.Pool{New: func() any { return new(tokenLinearTask) }}

func (t *tokenLinearTask) run(i int, _ *kernelScratch) {
	b, o := i/t.op.Out, i%t.op.Out
	T := t.in.Shape.H
	row := t.weight[o*t.op.In : (o+1)*t.op.In]
	var bv float32
	if t.bias != nil {
		bv = t.bias[o]
	}
	for tok := 0; tok < T; tok++ {
		acc := bv
		for k := 0; k < t.op.In; k++ {
			acc += row[k] * t.in.At(b, k, tok, 0)
		}
		t.out.Set(b, o, tok, 0, acc)
	}
}

// tokenLinear applies a linear layer independently per token of a C×T×1
// sequence. Weight layout: [out][in].
func tokenLinear(in *Tensor, op *graph.TokenLinearOp, weight, bias []float32, out *Tensor) {
	t := tokenLinearTaskPool.Get().(*tokenLinearTask)
	*t = tokenLinearTask{in: in, out: out, op: op, weight: weight, bias: bias}
	parallelRun(t, in.Batch*op.Out)
	*t = tokenLinearTask{}
	tokenLinearTaskPool.Put(t)
}

// batchNorm applies the inference-time affine transform per channel.
func batchNorm(in *Tensor, scale, shift []float32, out *Tensor) {
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			s, sh := scale[c], shift[c]
			src := in.channel(b, c)
			dst := out.channel(b, c)
			for i, v := range src {
				dst[i] = v*s + sh
			}
		}
	}
}

// layerNorm normalises each token across the embedding dimension. The
// mean/variance passes accumulate in float64 in channel order — the
// exact arithmetic of mean32/variance32 over a gathered buffer, without
// gathering one.
func layerNorm(in *Tensor, scale, shift []float32, out *Tensor) {
	const eps = 1e-5
	C := in.Shape.C
	for b := 0; b < in.Batch; b++ {
		for t := 0; t < in.Shape.H; t++ {
			for w := 0; w < in.Shape.W; w++ {
				var s float64
				for c := 0; c < C; c++ {
					s += float64(in.At(b, c, t, w))
				}
				mu := float32(s / float64(C))
				mu64 := float64(mu)
				var sv float64
				for c := 0; c < C; c++ {
					d := float64(in.At(b, c, t, w)) - mu64
					sv += d * d
				}
				va := float32(sv / float64(C))
				inv := float32(1 / math.Sqrt(float64(va)+eps))
				for c := 0; c < C; c++ {
					out.Set(b, c, t, w, (in.At(b, c, t, w)-mu)*inv*scale[c]+shift[c])
				}
			}
		}
	}
}

// activation applies fn elementwise.
func activation(in *Tensor, fn graph.ActFunc, out *Tensor) {
	for i, v := range in.Data {
		out.Data[i] = applyAct(fn, v)
	}
}

// pool2d computes max or average pooling.
func pool2d(in *Tensor, op *graph.Pool2dOp, out *Tensor) {
	kArea := float32(op.KH * op.KW)
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			src := in.channel(b, c)
			dst := out.channel(b, c)
			for oh := 0; oh < out.Shape.H; oh++ {
				for ow := 0; ow < out.Shape.W; ow++ {
					var acc float32
					if op.PoolKind == graph.MaxPool {
						acc = float32(math.Inf(-1))
					}
					for kh := 0; kh < op.KH; kh++ {
						ih := oh*op.StrideH - op.PadH + kh
						if ih < 0 || ih >= in.Shape.H {
							continue
						}
						for kw := 0; kw < op.KW; kw++ {
							iw := ow*op.StrideW - op.PadW + kw
							if iw < 0 || iw >= in.Shape.W {
								continue
							}
							v := src[ih*in.Shape.W+iw]
							if op.PoolKind == graph.MaxPool {
								if v > acc {
									acc = v
								}
							} else {
								acc += v
							}
						}
					}
					if op.PoolKind == graph.AvgPool {
						acc /= kArea // count_include_pad, PyTorch default
					}
					dst[oh*out.Shape.W+ow] = acc
				}
			}
		}
	}
}

// adaptiveAvgPool pools (or replicates) to a fixed output resolution
// using PyTorch's region rule: [floor(i·H/out), ceil((i+1)·H/out)).
func adaptiveAvgPool(in *Tensor, out *Tensor) {
	inH, inW := in.Shape.H, in.Shape.W
	outH, outW := out.Shape.H, out.Shape.W
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < in.Shape.C; c++ {
			src := in.channel(b, c)
			dst := out.channel(b, c)
			for oh := 0; oh < outH; oh++ {
				h0 := oh * inH / outH
				h1 := ((oh+1)*inH + outH - 1) / outH
				for ow := 0; ow < outW; ow++ {
					w0 := ow * inW / outW
					w1 := ((ow+1)*inW + outW - 1) / outW
					var acc float32
					for h := h0; h < h1; h++ {
						for w := w0; w < w1; w++ {
							acc += src[h*inW+w]
						}
					}
					dst[oh*outW+ow] = acc / float32((h1-h0)*(w1-w0))
				}
			}
		}
	}
}

// attnTask is one attentionCore invocation; item i enumerates the
// flattened (batch, head) space. The softmax scores live in the
// worker's scratch buffer.
type attnTask struct {
	in, out *Tensor
	op      *graph.AttentionCoreOp
	dh      int
	invSqrt float32
}

var attnTaskPool = sync.Pool{New: func() any { return new(attnTask) }}

func (t *attnTask) run(i int, sc *kernelScratch) {
	b, h := i/t.op.Heads, i%t.op.Heads
	in, out, op := t.in, t.out, t.op
	T := in.Shape.H
	scores := sc.floats(T)
	base := h * t.dh
	for q := 0; q < T; q++ {
		// scores = softmax(q_i · k_j / sqrt(dh))
		maxS := float32(math.Inf(-1))
		for j := 0; j < T; j++ {
			var s float32
			for d := 0; d < t.dh; d++ {
				qv := in.At(b, base+d, q, 0)
				kv := in.At(b, op.Dim+base+d, j, 0)
				s += qv * kv
			}
			s *= t.invSqrt
			scores[j] = s
			if s > maxS {
				maxS = s
			}
		}
		var sum float32
		for j := 0; j < T; j++ {
			scores[j] = float32(math.Exp(float64(scores[j] - maxS)))
			sum += scores[j]
		}
		for j := 0; j < T; j++ {
			scores[j] /= sum
		}
		for d := 0; d < t.dh; d++ {
			var acc float32
			for j := 0; j < T; j++ {
				acc += scores[j] * in.At(b, 2*op.Dim+base+d, j, 0)
			}
			out.Set(b, base+d, q, 0, acc)
		}
	}
}

// attentionCore runs multi-head scaled-dot-product attention over a
// fused QKV sequence (3·dim × T).
func attentionCore(in *Tensor, op *graph.AttentionCoreOp, out *Tensor) {
	dh := op.Dim / op.Heads
	t := attnTaskPool.Get().(*attnTask)
	*t = attnTask{
		in: in, out: out, op: op, dh: dh,
		invSqrt: float32(1 / math.Sqrt(float64(dh))),
	}
	parallelRun(t, in.Batch*op.Heads)
	*t = attnTask{}
	attnTaskPool.Put(t)
}

// toTokens flattens spatial patches into a token sequence, prepends the
// class token and adds position embeddings.
func toTokens(in *Tensor, op *graph.ToTokensOp, cls, pos []float32, out *Tensor) {
	spatial := in.Shape.H * in.Shape.W
	for b := 0; b < in.Batch; b++ {
		for c := 0; c < op.Dim; c++ {
			src := in.channel(b, c)
			out.Set(b, c, 0, 0, cls[c]+pos[0*op.Dim+c])
			for t := 0; t < spatial; t++ {
				out.Set(b, c, t+1, 0, src[t]+pos[(t+1)*op.Dim+c])
			}
		}
	}
}
