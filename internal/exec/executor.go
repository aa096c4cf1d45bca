package exec

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"convmeter/internal/graph"
	"convmeter/internal/obs"
)

// nodeWeights holds the initialised parameters of one node (nil slices
// for parameter-free ops).
type nodeWeights struct {
	w, b []float32 // conv/linear weight+bias, bn/ln scale+shift, tokens pos+cls
}

// Executor runs a validated graph with deterministic, seeded weights.
// It is safe for sequential reuse; Run allocates fresh activations.
type Executor struct {
	g       *graph.Graph
	weights []nodeWeights
	seed    int64

	// Telemetry (see SetObs). opCount/opTime are per-node handles indexed
	// like g.Nodes; both nil when telemetry is detached.
	o       *obs.Obs
	opCount []*obs.Counter
	opTime  []*obs.Histogram
}

// NewExecutor validates the graph and initialises every parameterised
// node with He-style random weights from the seed. The same (graph, seed)
// pair always yields identical numerics. Each node draws from its own
// RNG, seeded from (seed, node index), so the nodes initialise in
// parallel on the kernel pool with weights bit-identical to a serial
// pass.
func NewExecutor(g *graph.Graph, seed int64) (*Executor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	e := &Executor{g: g, weights: make([]nodeWeights, len(g.Nodes)), seed: seed}
	parallelRun(&initTask{nodes: g.Nodes, weights: e.weights, seed: seed}, len(g.Nodes))
	return e, nil
}

// initTask initialises the weights of node i into weights[i].
type initTask struct {
	nodes   []*graph.Node
	weights []nodeWeights
	seed    int64
}

func (t *initTask) run(i int, _ *kernelScratch) {
	t.weights[i] = initNode(t.nodes[i].Op, rand.New(rand.NewSource(t.seed+int64(i)*1000003)))
}

// initNode returns the initial parameters of one node: He-normal conv
// and linear weights with zero bias, unit norm scales with zero shifts,
// small-normal position embeddings. Parameter-free ops get none.
func initNode(op graph.Op, rng *rand.Rand) nodeWeights {
	he := func(n int, fanIn int) []float32 {
		out := make([]float32, n)
		std := float32(math.Sqrt(2 / float64(fanIn)))
		for j := range out {
			out[j] = float32(rng.NormFloat64()) * std
		}
		return out
	}
	ones := func(n int) []float32 {
		out := make([]float32, n)
		for j := range out {
			out[j] = 1
		}
		return out
	}
	// zeros returns the optional bias, nil when the layer has none.
	zeros := func(n int, present bool) []float32 {
		if !present {
			return nil
		}
		return make([]float32, n)
	}
	switch op := op.(type) {
	case *graph.Conv2dOp:
		fanIn := op.InC / op.Groups * op.KH * op.KW
		return nodeWeights{w: he(op.OutC*fanIn, fanIn), b: zeros(op.OutC, op.Bias)}
	case *graph.LinearOp:
		return nodeWeights{w: he(op.Out*op.In, op.In), b: zeros(op.Out, op.Bias)}
	case *graph.TokenLinearOp:
		return nodeWeights{w: he(op.Out*op.In, op.In), b: zeros(op.Out, op.Bias)}
	case *graph.BatchNormOp:
		return nodeWeights{w: ones(op.C), b: make([]float32, op.C)}
	case *graph.LayerNormOp:
		return nodeWeights{w: ones(op.Dim), b: make([]float32, op.Dim)}
	case *graph.ToTokensOp:
		pos := make([]float32, op.Tokens*op.Dim)
		for j := range pos {
			pos[j] = float32(rng.NormFloat64()) * 0.02
		}
		return nodeWeights{w: pos, b: make([]float32, op.Dim)}
	case *graph.ScaleOp:
		return nodeWeights{w: ones(op.C)}
	}
	return nodeWeights{}
}

// RandomInput builds a deterministic pseudo-random input tensor for the
// graph at the given batch size.
func (e *Executor) RandomInput(batch int) (*Tensor, error) {
	in, err := e.g.InputShape()
	if err != nil {
		return nil, err
	}
	t := NewTensor(batch, in)
	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t, nil
}

// Run executes the graph on the given input and returns the final node's
// output tensor.
func (e *Executor) Run(input *Tensor) (*Tensor, error) {
	sp := e.o.Start("fwd")
	defer sp.End()
	acts := make([]*Tensor, len(e.g.Nodes))
	return e.runInternal(input, acts)
}

// runInternal executes the graph, filling acts with every node's output
// (retained for the backward pass).
func (e *Executor) runInternal(input *Tensor, acts []*Tensor) (*Tensor, error) {
	inShape, err := e.g.InputShape()
	if err != nil {
		return nil, err
	}
	if input.Shape != inShape {
		return nil, fmt.Errorf("exec: input shape %v, graph expects %v", input.Shape, inShape)
	}
	batch := input.Batch
	maxIns := 0
	for _, n := range e.g.Nodes {
		if len(n.Inputs) > maxIns {
			maxIns = len(n.Inputs)
		}
	}
	insBuf := make([]*Tensor, maxIns)
	for i, n := range e.g.Nodes {
		ins := insBuf[:len(n.Inputs)]
		for j, id := range n.Inputs {
			ins[j] = acts[id]
		}
		out := NewTensor(batch, n.Out)
		nw := e.weights[i]
		var t0 time.Time
		if e.opTime != nil {
			t0 = time.Now()
		}
		switch op := n.Op.(type) {
		case *graph.InputOp:
			copy(out.Data, input.Data)
		case *graph.Conv2dOp:
			conv2d(ins[0], op, nw.w, nw.b, out)
		case *graph.LinearOp:
			linear(ins[0], op, nw.w, nw.b, out)
		case *graph.TokenLinearOp:
			tokenLinear(ins[0], op, nw.w, nw.b, out)
		case *graph.BatchNormOp:
			batchNorm(ins[0], nw.w, nw.b, out)
		case *graph.LayerNormOp:
			layerNorm(ins[0], nw.w, nw.b, out)
		case *graph.ActivationOp:
			activation(ins[0], op.Fn, out)
		case *graph.Pool2dOp:
			pool2d(ins[0], op, out)
		case *graph.AdaptiveAvgPoolOp:
			adaptiveAvgPool(ins[0], out)
		case *graph.AddOp:
			copy(out.Data, ins[0].Data)
			for _, other := range ins[1:] {
				for k, v := range other.Data {
					out.Data[k] += v
				}
			}
		case *graph.MulOp:
			mulBroadcast(ins[0], ins[1], out)
		case *graph.ConcatOp:
			concatChannels(ins, out)
		case *graph.FlattenOp, *graph.DropoutOp:
			copy(out.Data, ins[0].Data)
		case *graph.TakeTokenOp:
			for b := 0; b < batch; b++ {
				for c := 0; c < out.Shape.C; c++ {
					out.Set(b, c, 0, 0, ins[0].At(b, c, 0, 0))
				}
			}
		case *graph.ToTokensOp:
			toTokens(ins[0], op, nw.b, nw.w, out)
		case *graph.AttentionCoreOp:
			attentionCore(ins[0], op, out)
		case *graph.ScaleOp:
			for b := 0; b < batch; b++ {
				for c := 0; c < out.Shape.C; c++ {
					gv := nw.w[c]
					src := ins[0].channel(b, c)
					dst := out.channel(b, c)
					for k, v := range src {
						dst[k] = v * gv
					}
				}
			}
		case *graph.SliceChannelsOp:
			for b := 0; b < batch; b++ {
				for c := op.From; c < op.To; c++ {
					copy(out.channel(b, c-op.From), ins[0].channel(b, c))
				}
			}
		case *graph.ShuffleChannelsOp:
			// PyTorch channel_shuffle: view (groups × C/groups), transpose,
			// flatten — input channel gi·cpg+k lands at k·groups+gi.
			cpg := out.Shape.C / op.Groups
			for b := 0; b < batch; b++ {
				for c := 0; c < out.Shape.C; c++ {
					gi, k := c/cpg, c%cpg
					copy(out.channel(b, k*op.Groups+gi), ins[0].channel(b, c))
				}
			}
		default:
			return nil, fmt.Errorf("exec: no kernel for op kind %q", n.Op.Kind())
		}
		if e.opTime != nil {
			e.opTime[i].Observe(time.Since(t0).Seconds())
			e.opCount[i].Inc()
		}
		acts[i] = out
	}
	return acts[len(acts)-1], nil
}

// mulBroadcast multiplies a full tensor by either an equally shaped
// tensor or a per-channel C×1×1 gate.
func mulBroadcast(full, gate *Tensor, out *Tensor) {
	if gate.Shape == full.Shape {
		for i, v := range full.Data {
			out.Data[i] = v * gate.Data[i]
		}
		return
	}
	for b := 0; b < full.Batch; b++ {
		for c := 0; c < full.Shape.C; c++ {
			g := gate.At(b, c, 0, 0)
			src := full.channel(b, c)
			dst := out.channel(b, c)
			for i, v := range src {
				dst[i] = v * g
			}
		}
	}
}

// concatChannels concatenates inputs along the channel dimension.
func concatChannels(ins []*Tensor, out *Tensor) {
	for b := 0; b < out.Batch; b++ {
		oc := 0
		for _, in := range ins {
			for c := 0; c < in.Shape.C; c++ {
				copy(out.channel(b, oc), in.channel(b, c))
				oc++
			}
		}
	}
}
