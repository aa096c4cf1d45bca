package streamstat

import (
	"testing"

	"convmeter/internal/testrace"
)

// TestStreamStatZeroAllocs pins the per-observation allocation contract
// of the stats kernel roots declared in lint.config: Welford.Add,
// Window.Add, Window.Summary, Median3.Add and PageHinkley.Add run on
// every drift observation and must not touch the heap — Summary stages
// its pairs in the window's preallocated scratch.
func TestStreamStatZeroAllocs(t *testing.T) {
	testrace.SkipIfRace(t)

	var wf Welford
	win := NewWindow(128)
	ph := NewPageHinkley(PHConfig{})
	var med Median3
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		x := float64(i%16) * 0.001
		wf.Add(x)
		win.Add(1+x, 1+2*x)
		if sum := win.Summary(); sum.RMSE < 0 {
			t.Fatal("impossible summary")
		}
		ph.Add(med.Add(x))
		i++
	}); n != 0 {
		t.Errorf("streamstat observe path allocates %.2f/op, want 0", n)
	}
}
