// Package streamstat is the deterministic stats kernel under
// internal/driftwatch: Welford online moments, a fixed-capacity
// (predicted, actual) ring window whose summary reproduces the exact
// accuracy metrics of internal/regress (R², RMSE, NRMSE, MAPE — the
// paper's reported quartet), a Page-Hinkley change detector over
// residual streams, and the three-sample running median that guards it
// against isolated spikes.
//
// The package is pure computation over its inputs: no clocks, no
// goroutines, no maps — it is declared `deterministic` in lint.config,
// so the same input stream always yields bit-identical summaries and
// detection points. Concurrency, telemetry and wall-clock feeding live
// one level up, in internal/driftwatch.
//
// Every method is nil-safe: a nil *Welford, *Window or *PageHinkley is
// a true no-op, so disabled monitoring costs nothing on hot paths.
package streamstat

import (
	"math"

	"convmeter/internal/regress"
)

// Welford accumulates online mean and variance (Welford's algorithm),
// numerically stable over arbitrarily long residual streams. The zero
// value is ready; a nil *Welford ignores Add and reports zeros.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the moments. NaN and ±Inf are ignored:
// one poisoned residual must not contaminate the lifetime statistics.
func (w *Welford) Add(x float64) {
	if w == nil || math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations (0 on nil).
func (w *Welford) N() int {
	if w == nil {
		return 0
	}
	return w.n
}

// Mean returns the running mean (0 on nil or empty).
func (w *Welford) Mean() float64 {
	if w == nil {
		return 0
	}
	return w.mean
}

// Var returns the population variance (0 below two observations).
func (w *Welford) Var() float64 {
	if w == nil || w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 {
	if w == nil {
		return 0
	}
	return math.Sqrt(w.Var())
}

// Window is a fixed-capacity ring buffer of (predicted, actual) pairs.
// Summary recomputes the regress accuracy metrics over the pairs still
// in the window, in arrival order, so a full window reports exactly what
// an offline regress.Evaluate over the same suffix would. A nil *Window
// ignores Add and summarises to zero.
type Window struct {
	pred   []float64
	actual []float64
	next   int // ring write cursor
	n      int // pairs held, <= cap

	// Summary scratch: arrival-order copies handed to regress.Evaluate,
	// preallocated so the per-step observe path never allocates.
	sumPred   []float64
	sumActual []float64
}

// NewWindow returns a window holding the last `capacity` pairs.
// A non-positive capacity yields nil (a no-op window).
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		return nil
	}
	return &Window{
		pred:      make([]float64, capacity),
		actual:    make([]float64, capacity),
		sumPred:   make([]float64, capacity),
		sumActual: make([]float64, capacity),
	}
}

// Add appends a pair, evicting the oldest once the window is full.
// Pairs with a NaN or infinite member are ignored — the regress metrics
// are undefined on them and one bad sample must not wedge the window.
func (w *Window) Add(pred, actual float64) {
	if w == nil ||
		math.IsNaN(pred) || math.IsInf(pred, 0) ||
		math.IsNaN(actual) || math.IsInf(actual, 0) {
		return
	}
	w.pred[w.next] = pred
	w.actual[w.next] = actual
	w.next = (w.next + 1) % len(w.pred)
	if w.n < len(w.pred) {
		w.n++
	}
}

// Len returns the number of pairs currently held (0 on nil).
func (w *Window) Len() int {
	if w == nil {
		return 0
	}
	return w.n
}

// Cap returns the window capacity (0 on nil).
func (w *Window) Cap() int {
	if w == nil {
		return 0
	}
	return len(w.pred)
}

// Pairs returns the held (predicted, actual) pairs in arrival order,
// oldest first. Nil-safe (returns nil slices).
func (w *Window) Pairs() (pred, actual []float64) {
	if w == nil || w.n == 0 {
		return nil, nil
	}
	pred = make([]float64, 0, w.n)
	actual = make([]float64, 0, w.n)
	start := (w.next - w.n + len(w.pred)) % len(w.pred)
	for i := 0; i < w.n; i++ {
		j := (start + i) % len(w.pred)
		pred = append(pred, w.pred[j])
		actual = append(actual, w.actual[j])
	}
	return pred, actual
}

// Summary evaluates the regress accuracy metrics over the window's
// current pairs — by construction identical to regress.Evaluate on the
// same suffix of the stream. An empty (or nil) window reports the zero
// Report. The pairs are staged in the window's preallocated scratch, so
// a Summary allocates nothing regardless of window size.
func (w *Window) Summary() regress.Report {
	if w == nil || w.n == 0 {
		return regress.Report{}
	}
	pred := w.sumPred[:w.n]
	actual := w.sumActual[:w.n]
	start := (w.next - w.n + len(w.pred)) % len(w.pred)
	for i := 0; i < w.n; i++ {
		j := (start + i) % len(w.pred)
		pred[i] = w.pred[j]
		actual[i] = w.actual[j]
	}
	// The only error paths are length mismatch and emptiness, both
	// excluded above.
	rep, err := regress.Evaluate(actual, pred)
	if err != nil {
		return regress.Report{}
	}
	return rep
}

// Median3 is a running median over the last three samples. Fed in
// front of a change detector it rejects an isolated spike — one sample
// far off the level, such as one step a busy host preempted — while a
// sustained level shift passes one sample late. Until three samples
// have arrived it returns the median of those it has. The zero value
// is ready; a nil *Median3 passes samples through.
type Median3 struct {
	n          int
	prev, last float64 // the two most recent samples, oldest first
}

// Add feeds x and returns the median of the last three samples.
func (m *Median3) Add(x float64) float64 {
	if m == nil {
		return x
	}
	a, b := m.prev, m.last
	m.prev, m.last = b, x
	if m.n < 2 {
		m.n++
		if m.n == 1 {
			return x
		}
		return (b + x) / 2
	}
	return max(min(a, b), min(max(a, b), x))
}

// Reset forgets every sample fed so far.
func (m *Median3) Reset() {
	if m != nil {
		*m = Median3{}
	}
}

// Direction selects which residual shifts a PageHinkley detector tests.
type Direction int

// Detection directions. Increase is the deployment default — a predictor
// whose target got *slower* than predicted (stragglers, contention,
// thermal throttling) is the failure mode the paper's accuracy claim
// breaks on first.
const (
	Increase Direction = iota // residuals shifted up (measured > predicted)
	Decrease                  // residuals shifted down
	Both                      // either direction
)

// PHConfig parameterises a PageHinkley detector. Zero values select the
// package defaults.
type PHConfig struct {
	// Delta is the magnitude tolerance δ: shifts smaller than δ per
	// sample never accumulate. Default 0.05 (5 % relative residual).
	Delta float64
	// Lambda is the detection threshold λ on the accumulated deviation.
	// Default 5.
	Lambda float64
	// Warmup is the number of samples consumed before testing begins, so
	// the running mean settles first. Default 5.
	Warmup int
	// Direction selects which shifts fire. Default Increase.
	Direction Direction
}

func (c PHConfig) delta() float64 {
	if c.Delta <= 0 {
		return 0.05
	}
	return c.Delta
}

func (c PHConfig) lambda() float64 {
	if c.Lambda <= 0 {
		return 5
	}
	return c.Lambda
}

func (c PHConfig) warmup() int {
	if c.Warmup <= 0 {
		return 5
	}
	return c.Warmup
}

// PageHinkley is the classic Page-Hinkley test over a residual stream:
// it accumulates deviations of each sample from the running mean beyond
// a tolerance δ and fires when the accumulation escapes its historical
// extremum by more than λ. The running mean self-adapts, so a *constant*
// prediction bias (simulated coefficients vs a real host) is absorbed
// and only genuine shifts fire. A nil *PageHinkley ignores Add.
type PageHinkley struct {
	cfg PHConfig

	n      int
	mean   float64
	mInc   float64 // cumulative (x − mean − δ), tests upward shifts
	minInc float64
	mDec   float64 // cumulative (x − mean + δ), tests downward shifts
	maxDec float64
}

// NewPageHinkley returns a detector with the given configuration.
func NewPageHinkley(cfg PHConfig) *PageHinkley {
	return &PageHinkley{cfg: cfg}
}

// N returns the number of samples since the last reset (0 on nil).
func (d *PageHinkley) N() int {
	if d == nil {
		return 0
	}
	return d.n
}

// Warmup returns the effective warmup length after defaulting (0 on nil).
func (d *PageHinkley) Warmup() int {
	if d == nil {
		return 0
	}
	return d.cfg.warmup()
}

// Reset clears the detector's state (mean and accumulations), keeping
// its configuration. Called automatically after a detection so each
// fired event represents one distinct shift.
func (d *PageHinkley) Reset() {
	if d == nil {
		return
	}
	d.n, d.mean = 0, 0
	d.mInc, d.minInc = 0, 0
	d.mDec, d.maxDec = 0, 0
}

// Add feeds one residual and reports whether a shift was detected. On
// detection the detector resets itself. Non-finite samples are ignored.
func (d *PageHinkley) Add(x float64) bool {
	if d == nil || math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	d.n++
	d.mean += (x - d.mean) / float64(d.n)
	delta, lambda := d.cfg.delta(), d.cfg.lambda()
	d.mInc += x - d.mean - delta
	if d.mInc < d.minInc {
		d.minInc = d.mInc
	}
	d.mDec += x - d.mean + delta
	if d.mDec > d.maxDec {
		d.maxDec = d.mDec
	}
	if d.n <= d.cfg.warmup() {
		return false
	}
	up := d.mInc-d.minInc > lambda
	down := d.maxDec-d.mDec > lambda
	var fired bool
	switch d.cfg.Direction {
	case Increase:
		fired = up
	case Decrease:
		fired = down
	case Both:
		fired = up || down
	}
	if fired {
		d.Reset()
	}
	return fired
}
