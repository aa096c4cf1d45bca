package streamstat

import (
	"math"
	"math/rand"
	"testing"

	"convmeter/internal/regress"
)

func TestWelfordMatchesClosedForm(t *testing.T) {
	xs := []float64{1.5, 2.25, -0.5, 4, 4, 0.125, 3.75}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var varSum float64
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	wantVar := varSum / float64(len(xs))
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("Mean = %g, want %g", w.Mean(), mean)
	}
	if math.Abs(w.Var()-wantVar) > 1e-12 {
		t.Errorf("Var = %g, want %g", w.Var(), wantVar)
	}
	if math.Abs(w.Std()-math.Sqrt(wantVar)) > 1e-12 {
		t.Errorf("Std = %g, want %g", w.Std(), math.Sqrt(wantVar))
	}
}

func TestWelfordIgnoresNonFinite(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(math.NaN())
	w.Add(math.Inf(1))
	w.Add(3)
	if w.N() != 2 || math.Abs(w.Mean()-2) > 1e-15 {
		t.Errorf("N=%d Mean=%g after non-finite adds, want 2 / 2", w.N(), w.Mean())
	}
}

// TestWindowSummaryMatchesOffline is the satellite agreement guarantee:
// a window summary over a stream must equal an offline regress.Evaluate
// over the last-capacity suffix of the same stream, bit for bit.
func TestWindowSummaryMatchesOffline(t *testing.T) {
	const capacity, total = 16, 53
	rng := rand.New(rand.NewSource(7))
	w := NewWindow(capacity)
	var pred, actual []float64
	for i := 0; i < total; i++ {
		p := 1 + rng.Float64()
		a := p * (1 + 0.1*rng.NormFloat64())
		pred = append(pred, p)
		actual = append(actual, a)
		w.Add(p, a)

		n := i + 1
		if n > capacity {
			n = capacity
		}
		if w.Len() != n {
			t.Fatalf("step %d: Len = %d, want %d", i, w.Len(), n)
		}
		suffixP := pred[len(pred)-n:]
		suffixA := actual[len(actual)-n:]
		want, err := regress.Evaluate(suffixA, suffixP)
		if err != nil {
			t.Fatal(err)
		}
		got := w.Summary()
		if got != want {
			t.Fatalf("step %d: Summary = %+v, offline regress.Evaluate = %+v", i, got, want)
		}
	}
}

func TestWindowPairsOrder(t *testing.T) {
	w := NewWindow(3)
	for i := 1; i <= 5; i++ {
		w.Add(float64(i), float64(10*i))
	}
	pred, actual := w.Pairs()
	wantP := []float64{3, 4, 5}
	wantA := []float64{30, 40, 50}
	for i := range wantP {
		if pred[i] != wantP[i] || actual[i] != wantA[i] {
			t.Fatalf("Pairs = %v/%v, want %v/%v", pred, actual, wantP, wantA)
		}
	}
	if w.Cap() != 3 {
		t.Errorf("Cap = %d, want 3", w.Cap())
	}
}

func TestWindowRejectsNonFinite(t *testing.T) {
	w := NewWindow(4)
	w.Add(math.NaN(), 1)
	w.Add(1, math.Inf(-1))
	if w.Len() != 0 {
		t.Errorf("Len = %d after non-finite pairs, want 0", w.Len())
	}
	if got := w.Summary(); got != (regress.Report{}) {
		t.Errorf("empty Summary = %+v, want zero report", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var w *Welford
	w.Add(1)
	if w.N() != 0 || w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Error("nil Welford is not a no-op")
	}
	var win *Window
	win.Add(1, 2)
	if win.Len() != 0 || win.Cap() != 0 {
		t.Error("nil Window is not a no-op")
	}
	if p, a := win.Pairs(); p != nil || a != nil {
		t.Error("nil Window.Pairs not nil")
	}
	if win.Summary() != (regress.Report{}) {
		t.Error("nil Window.Summary not zero")
	}
	if NewWindow(0) != nil {
		t.Error("NewWindow(0) must be nil")
	}
	var ph *PageHinkley
	if ph.Add(100) || ph.N() != 0 {
		t.Error("nil PageHinkley is not a no-op")
	}
	ph.Reset()
}

// TestPageHinkleySilentOnStationaryNoise: zero-mean noise around a
// constant level must never fire — the running mean absorbs the level
// and δ absorbs the noise.
func TestPageHinkleySilentOnStationaryNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3})
	for i := 0; i < 2000; i++ {
		x := 0.25 + 0.1*rng.NormFloat64()
		if d.Add(x) {
			t.Fatalf("fired on stationary noise at sample %d", i)
		}
	}
}

// TestPageHinkleyFiresOnUpwardShift: a sustained upward level shift
// well beyond δ must fire within a few samples, then the detector
// resets and can fire again on the next shift.
func TestPageHinkleyFiresOnUpwardShift(t *testing.T) {
	d := NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3})
	for i := 0; i < 20; i++ {
		if d.Add(0.1) {
			t.Fatalf("fired on the flat prefix at sample %d", i)
		}
	}
	fired := -1
	for i := 0; i < 10; i++ {
		if d.Add(10) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("never fired on a 100x upward shift")
	}
	if d.N() != 0 {
		t.Errorf("detector did not reset after firing: N = %d", d.N())
	}
	// After the reset the new level is the baseline; it must re-arm and
	// detect a second, later shift.
	for i := 0; i < 20; i++ {
		if d.Add(10) && d.N() != 0 {
			t.Fatal("inconsistent reset state")
		}
	}
}

// TestPageHinkleyDirection: increase-only detectors must ignore
// speedups; Both must catch them.
func TestPageHinkleyDirection(t *testing.T) {
	feed := func(d *PageHinkley) bool {
		for i := 0; i < 20; i++ {
			if d.Add(10) {
				return true
			}
		}
		for i := 0; i < 10; i++ {
			if d.Add(0.1) {
				return true
			}
		}
		return false
	}
	if feed(NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3, Direction: Increase})) {
		t.Error("Increase detector fired on a downward shift")
	}
	if !feed(NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3, Direction: Both})) {
		t.Error("Both detector missed a downward shift")
	}
	if !feed(NewPageHinkley(PHConfig{Delta: 0.5, Lambda: 8, Warmup: 3, Direction: Decrease})) {
		t.Error("Decrease detector missed a downward shift")
	}
}

func TestPageHinkleyWarmupSuppresses(t *testing.T) {
	d := NewPageHinkley(PHConfig{Delta: 0.01, Lambda: 0.1, Warmup: 50})
	for i := 0; i < 50; i++ {
		if d.Add(float64(i)) {
			t.Fatalf("fired inside warmup at sample %d", i)
		}
	}
}

// TestMedian3: the running median passes the lone first sample, the
// mean of the first two, then the median of the last three — so one
// spike is absorbed while a level shift passes one sample late.
func TestMedian3(t *testing.T) {
	var m Median3
	for i, c := range []struct{ in, want float64 }{
		{1, 1},   // lone sample
		{3, 2},   // mean of two
		{2, 2},   // median of 1, 3, 2
		{50, 3},  // a spike: median of 3, 2, 50
		{2, 2},   // the spike never reaches the output
		{9, 9},   // a shift: median of 50, 2, 9 ...
		{9, 9},   // ... and it holds once two samples agree
		{-4, 9},  // a downward spike is absorbed too
		{-5, -4}, // two low samples move the median
	} {
		if got := m.Add(c.in); got != c.want {
			t.Fatalf("sample %d: Add(%g) = %g, want %g", i, c.in, got, c.want)
		}
	}
	m.Reset()
	if got := m.Add(7); got != 7 {
		t.Errorf("after Reset, Add(7) = %g, want the lone sample 7", got)
	}
	var nilM *Median3
	if got := nilM.Add(5); got != 5 {
		t.Errorf("nil Median3.Add(5) = %g, want 5 passed through", got)
	}
	nilM.Reset()
}
