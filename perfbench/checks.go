package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"convmeter/internal/exec"
	"convmeter/internal/graph"
	"convmeter/internal/models"
	"convmeter/internal/nas"
)

// referenceJSON holds the committed reference outputs. Regenerate it
// with --print-reference only when a change is meant to alter them.
//
//go:embed reference.json
var referenceJSON []byte

// outputSum condenses a forward output into two checksums: the L1 norm
// and a sign-hashed sum that catches permuted or sign-flipped outputs
// the L1 norm cannot see.
type outputSum struct {
	L1     float64 `json:"l1"`
	Signed float64 `json:"signed"`
}

// nasOutcome is what a seeded search must reproduce exactly.
type nasOutcome struct {
	Best      []nas.BlockChoice `json:"best"`
	Evaluated int               `json:"evaluated"`
	Feasible  int               `json:"feasible"`
}

type referenceData struct {
	Infer struct {
		WeightSeed int64                `json:"weight_seed"`
		InputSeed  int64                `json:"input_seed"`
		Image      int                  `json:"image"`
		Outputs    map[string]outputSum `json:"outputs"`
	} `json:"infer"`
	Experiments struct {
		Seed int64 `json:"seed"`
		// Stats are rendered with strconv 'g'/-1 so NaN and ±Inf
		// survive JSON and values round-trip exactly.
		Stats map[string]map[string]string `json:"stats"`
	} `json:"experiments"`
	NAS struct {
		Seed    int64      `json:"seed"`
		Outcome nasOutcome `json:"outcome"`
	} `json:"nas"`
}

func loadReference() (*referenceData, error) {
	var ref referenceData
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// Fixed seeds of the committed references.
const (
	refWeightSeed = 7
	refInputSeed  = 0
	refImage      = 32
	refExpSeed    = 1
	refNASSeed    = 1
)

// printReference recomputes every committed reference and writes the
// reference.json document.
func printReference(w io.Writer) error {
	var ref referenceData
	ref.Infer.WeightSeed, ref.Infer.InputSeed, ref.Infer.Image = refWeightSeed, refInputSeed, refImage
	ref.Infer.Outputs = map[string]outputSum{}
	for _, name := range inferModels {
		g, err := models.Build(name, refImage)
		if err != nil {
			return err
		}
		e, err := exec.NewExecutor(g, refWeightSeed)
		if err != nil {
			return err
		}
		shape, err := g.InputShape()
		if err != nil {
			return err
		}
		out, err := e.Run(seededInput(shape, 1, refInputSeed, 0))
		if err != nil {
			return err
		}
		sum, err := checksum(out)
		if err != nil {
			return err
		}
		ref.Infer.Outputs[graphKey(name, refImage)] = sum
	}
	ref.Experiments.Seed = refExpSeed
	res, err := runExperiments(refExpSeed)
	if err != nil {
		return err
	}
	ref.Experiments.Stats = map[string]map[string]string{}
	for id, stats := range res {
		m := map[string]string{}
		for k, v := range stats {
			m[k] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		ref.Experiments.Stats[id] = m
	}
	ref.NAS.Seed = refNASSeed
	ns, err := newNASSetup(refNASSeed)
	if err != nil {
		return err
	}
	ref.NAS.Outcome, err = ns.search(refNASSeed)
	if err != nil {
		return err
	}
	doc, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(doc))
	return err
}

func graphKey(model string, img int) string { return fmt.Sprintf("%s@%d", model, img) }

// seededInput builds a standard-normal input batch from (seed, salt).
func seededInput(shape graph.Shape, batch int, seed, salt int64) *exec.Tensor {
	t := exec.NewTensor(batch, shape)
	rng := rand.New(rand.NewSource(seed*1_000_003 + salt))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// checksum condenses an output tensor, failing on any non-finite value.
func checksum(t *exec.Tensor) (outputSum, error) {
	var s outputSum
	for i, v := range t.Data {
		x := float64(v)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return s, errCheck("output element %d is %v", i, v)
		}
		s.L1 += math.Abs(x)
		if (uint32(i)*2654435761)>>16&1 == 0 {
			s.Signed += x
		} else {
			s.Signed -= x
		}
	}
	return s, nil
}

// outputTolerance is the relative tolerance for comparing a graph's
// output checksums: float32 rounding error grows with the square root
// of the longest reduction and linearly with the number of reducing
// layers, so a correct rewrite that reorders sums (a GEMM kernel, a
// blocked convolution) still passes while a wrong result does not.
func outputTolerance(g *graph.Graph) float64 {
	const eps32 = 1.0 / (1 << 23)
	kmax, depth := 1, 0
	for _, n := range g.Nodes {
		k := 0
		switch op := n.Op.(type) {
		case *graph.Conv2dOp:
			k = op.InC / op.Groups * op.KH * op.KW
		case *graph.LinearOp:
			k = op.In
		default:
			continue
		}
		depth++
		kmax = max(kmax, k)
	}
	return 4 * eps32 * math.Sqrt(float64(kmax)) * float64(max(depth, 1))
}

// sumsAgree compares two checksums of the same output within rel·L1.
func sumsAgree(got, want outputSum, rel float64) error {
	limit := rel * math.Max(want.L1, 1e-30)
	if math.Abs(got.L1-want.L1) > limit || math.Abs(got.Signed-want.Signed) > limit {
		return errCheck("checksum (l1 %.9g, signed %.9g) differs from (l1 %.9g, signed %.9g) beyond tolerance %.3g",
			got.L1, got.Signed, want.L1, want.Signed, rel)
	}
	return nil
}

// statsAgree compares an experiment's Stats with the committed
// reference: same keys, values equal within a relative 1e-6 (NaN only
// matches NaN), so a numerically equivalent fit still passes.
func statsAgree(id string, got map[string]float64, want map[string]string) error {
	if len(got) != len(want) {
		return errCheck("%s: %d stats, reference has %d", id, len(got), len(want))
	}
	for k, ws := range want {
		g, ok := got[k]
		if !ok {
			return errCheck("%s: stat %q missing", id, k)
		}
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil {
			return fmt.Errorf("reference %s.%s: %w", id, k, err)
		}
		switch {
		case math.IsNaN(w) || math.IsNaN(g):
			if math.IsNaN(w) != math.IsNaN(g) {
				return errCheck("%s.%s = %v, reference %v", id, k, g, w)
			}
		case math.IsInf(w, 0) || math.IsInf(g, 0):
			if g != w {
				return errCheck("%s.%s = %v, reference %v", id, k, g, w)
			}
		case math.Abs(g-w) > 1e-6*math.Max(math.Abs(w), 1e-12):
			return errCheck("%s.%s = %.17g, reference %.17g", id, k, g, w)
		}
	}
	return nil
}

// outcomesEqual requires an exact match of a search outcome.
func outcomesEqual(got, want nasOutcome) error {
	if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible || len(got.Best) != len(want.Best) {
		return errCheck("nas outcome (evaluated %d, feasible %d) differs from (evaluated %d, feasible %d)",
			got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
	}
	for i := range got.Best {
		if got.Best[i] != want.Best[i] {
			return errCheck("nas best candidate differs at block %d: %+v vs %+v", i, got.Best[i], want.Best[i])
		}
	}
	return nil
}
