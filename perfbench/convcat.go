package main

import (
	"fmt"
	"time"

	"convmeter/internal/exec"
	"convmeter/internal/graph"
	"convmeter/internal/obs"
)

// convClasses are the primitive classes of the conv catalogue.
var convClasses = []string{"conv3x3", "conv1x1", "dwconv", "conv_other"}

// convShape is one distinct convolution: its input shape and full
// configuration.
type convShape struct {
	in graph.Shape
	op graph.Conv2dOp
}

// classify puts a convolution into its primitive class: depthwise
// (groups = input channels) first, then dense 3×3 and 1×1, everything
// else (7×7 stems, grouped, asymmetric) as other.
func classify(op graph.Conv2dOp) string {
	switch {
	case op.Groups > 1 && op.Groups == op.InC:
		return "dwconv"
	case op.Groups == 1 && op.KH == 3 && op.KW == 3:
		return "conv3x3"
	case op.Groups == 1 && op.KH == 1 && op.KW == 1:
		return "conv1x1"
	}
	return "conv_other"
}

// convShapes returns the distinct conv shapes of the graphs, in first-
// seen order.
func convShapes(graphs []*graph.Graph) []convShape {
	seen := map[convShape]bool{}
	var out []convShape
	for _, g := range graphs {
		for _, n := range g.Nodes {
			op, ok := n.Op.(*graph.Conv2dOp)
			if !ok {
				continue
			}
			s := convShape{in: g.Nodes[n.Inputs[0]].Out, op: *op}
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// Catalogue plan: batch-1 inputs, one untimed warm-up pass, then
// catalogueReps passes timed by the executor's own per-op histogram.
const (
	catalogueBatch = 1
	catalogueReps  = 2
)

// convCatalogue times every distinct conv shape of the infer-real
// models as a single-op graph built with graph.Builder and run through
// exec.Run, and fills the exec.<class>_* metrics: GFLOP/s over the
// class, its number of distinct shapes, and the computed arithmetic
// intensity F/(4·(I+O+W)).
func convCatalogue(rep *report, graphs []*inferGraph) error {
	gs := make([]*graph.Graph, len(graphs))
	for i, ig := range graphs {
		gs[i] = ig.g
	}
	type acc struct{ flops, secs, in, out, w float64 }
	by := map[string]*acc{}
	shapes := map[string]int{}
	t0 := time.Now()
	list := convShapes(gs)
	for i, cs := range list {
		b, x := graph.NewBuilder(fmt.Sprintf("conv%d", i), cs.in)
		b.Conv2d(x, "conv", graph.ConvSpec{
			Out: cs.op.OutC, KH: cs.op.KH, KW: cs.op.KW,
			StrideH: cs.op.StrideH, StrideW: cs.op.StrideW,
			PadH: cs.op.PadH, PadW: cs.op.PadW,
			DilationH: cs.op.DilationH, DilationW: cs.op.DilationW,
			Groups: cs.op.Groups, Bias: cs.op.Bias,
		})
		g, err := b.Build()
		if err != nil {
			return fmt.Errorf("catalogue shape %d: %w", i, err)
		}
		e, err := exec.NewExecutor(g, refWeightSeed)
		if err != nil {
			return err
		}
		in := seededInput(cs.in, catalogueBatch, refInputSeed, int64(i))
		if _, err := e.Run(in); err != nil {
			rep.op(err)
			continue
		}
		o := obs.New()
		e.SetObs(o)
		var runErr error
		for r := 0; r < catalogueReps && runErr == nil; r++ {
			var out *exec.Tensor
			out, runErr = e.Run(in)
			if runErr == nil {
				_, runErr = checksum(out)
			}
		}
		rep.op(runErr)
		if runErr != nil {
			continue
		}
		class := classify(cs.op)
		a := by[class]
		if a == nil {
			a = &acc{}
			by[class] = a
		}
		bf := float64(catalogueBatch)
		a.flops += float64(g.NodeFLOPs(1)) * bf * catalogueReps
		a.secs += execKindSeconds(o.Reg)["exec.conv2d_s"]
		a.in += float64(cs.in.Elems()) * bf
		a.out += float64(g.Nodes[1].Out.Elems()) * bf
		a.w += float64(cs.op.Params())
		shapes[class]++
	}
	for _, c := range convClasses {
		a := by[c]
		if a == nil {
			continue
		}
		rep.layer["exec."+c+"_gflops"] = ratioOrZero(a.flops/1e9, a.secs)
		rep.layer["exec."+c+"_shapes"] = float64(shapes[c])
		rep.layer["exec."+c+"_flop_per_byte"] = flopPerByte(a.flops/catalogueReps, a.in, a.out, a.w)
	}
	rep.notef("conv catalogue: %d distinct shapes timed in %.1f s (batch %d, %d reps; *_flop_per_byte is computed, not measured)",
		len(list), time.Since(t0).Seconds(), catalogueBatch, catalogueReps)
	return nil
}
