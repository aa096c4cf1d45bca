package driftwatch

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"convmeter/internal/obs"
	"convmeter/internal/regress"
)

// trackerOpts: a short window and an aggressive detector so tests drive
// state transitions in few samples.
func trackerOpts() Options {
	return Options{Window: 16, Delta: 0.5, Lambda: 8, Warmup: 3}
}

func TestNilMonitorAndStream(t *testing.T) {
	var m *Monitor
	st := m.Stream("net", "iter")
	if st != nil {
		t.Fatal("nil monitor handed out a non-nil stream")
	}
	st.Observe(1, 2) // must not panic
	st.Recalibrate()
	if st.Events() != 0 || st.Model() != "" || st.Phase() != "" {
		t.Error("nil stream is not a no-op")
	}
	if got := st.Snapshot(); got != (StreamSnapshot{}) {
		t.Errorf("nil stream snapshot = %+v", got)
	}
	if m.Events() != 0 {
		t.Error("nil monitor reports events")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Streams []json.RawMessage `json:"streams"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil monitor JSON invalid: %v\n%s", err, buf.Bytes())
	}
	if doc.Streams == nil {
		t.Errorf("nil monitor JSON must serialise streams as [], got:\n%s", buf.Bytes())
	}
}

// TestWindowAgreesWithOfflineEvaluation: with κ = 1 (no calibration) a
// stream's rolling window must report exactly what core/eval's regress
// metrics report offline on the same suffix of the pair stream. This is
// the satellite guarantee that /drift numbers are comparable to the
// LOMO reports.
func TestWindowAgreesWithOfflineEvaluation(t *testing.T) {
	const window, total = 16, 40
	m := New(Config{Defaults: Options{Window: window}})
	st := m.Stream("alexnet", "iter")
	rng := rand.New(rand.NewSource(3))
	var pred, actual []float64
	for i := 0; i < total; i++ {
		p := 0.01 + 0.05*rng.Float64()
		a := p * (1 + 0.15*rng.NormFloat64())
		if a <= 0 {
			a = p
		}
		pred = append(pred, p)
		actual = append(actual, a)
		st.Observe(p, a)
	}
	n := window
	want, err := regress.Evaluate(actual[len(actual)-n:], pred[len(pred)-n:])
	if err != nil {
		t.Fatal(err)
	}
	got := st.Snapshot().Window
	if got.N != n {
		t.Fatalf("window N = %d, want %d", got.N, n)
	}
	if got.R2 != want.R2 || got.RMSE != want.RMSE || got.NRMSE != want.NRMSE || got.MAPE != want.MAPE {
		t.Errorf("window report %+v differs from offline regress %+v", got, want)
	}
}

func TestCalibrationComputesKappa(t *testing.T) {
	m := New(Config{})
	opts := trackerOpts()
	opts.CalibrateN = 2
	st := m.StreamOpts("net", "iter", opts)
	// Predictor runs 4x fast (sim coefficients): measured = 4*predicted.
	st.Observe(0.01, 0.04)
	st.Observe(0.03, 0.12)
	snap := st.Snapshot()
	if math.Abs(snap.Kappa-4) > 1e-12 {
		t.Fatalf("kappa = %g, want 4", snap.Kappa)
	}
	if snap.Window.N != 0 {
		t.Errorf("calibration pairs leaked into the window: N = %d", snap.Window.N)
	}
	// Post-calibration the scaled residuals are ~0: state reaches ok and
	// the window is near-perfect.
	for i := 0; i < 10; i++ {
		p := 0.01 + 0.001*float64(i)
		st.Observe(p, 4*p)
	}
	snap = st.Snapshot()
	if snap.State != StateOK {
		t.Errorf("state = %q after clean tracked feed, want ok", snap.State)
	}
	if snap.Events != 0 {
		t.Errorf("events = %d on a clean feed", snap.Events)
	}
	if snap.Window.R2 < 0.999 {
		t.Errorf("window R² = %g after calibration, want ≈1", snap.Window.R2)
	}
}

// TestDriftFiresOnSlowdownShift mimics the straggler scenario: the
// predictor keeps predicting the healthy step time while measured steps
// suddenly take much longer. The detector must fire, telemetry must
// record it, and a clean continuation must stay latched drifting.
func TestDriftFiresOnSlowdownShift(t *testing.T) {
	o := obs.New()
	var hookEvents []Event
	m := New(Config{Obs: o, OnDrift: func(ev Event) { hookEvents = append(hookEvents, ev) }})
	opts := trackerOpts()
	opts.CalibrateN = 2
	st := m.StreamOpts("trainreal", "iter", opts)

	const healthy = 0.008
	for i := 0; i < 8; i++ {
		st.Observe(healthy, healthy*1.05)
	}
	if st.Snapshot().State != StateOK {
		t.Fatalf("state = %q on healthy prefix", st.Snapshot().State)
	}
	// Straggler onset: +60ms on ~8ms steps.
	for i := 0; i < 6; i++ {
		st.Observe(healthy, healthy+0.060)
	}
	snap := st.Snapshot()
	if snap.Events < 1 {
		t.Fatalf("no drift event on an ~8x slowdown: %+v", snap)
	}
	if snap.State != StateDrifting {
		t.Errorf("state = %q, want drifting", snap.State)
	}
	if len(hookEvents) != snap.Events {
		t.Errorf("OnDrift invoked %d times, events = %d", len(hookEvents), snap.Events)
	}
	if hookEvents[0].Model != "trainreal" || hookEvents[0].Phase != "iter" || hookEvents[0].Stream != st {
		t.Errorf("OnDrift event misdescribes the stream: %+v", hookEvents[0])
	}

	// Telemetry: the counter and the span annotation.
	var counter float64
	for _, p := range o.Reg.Snapshot() {
		if p.Name == obs.Label("convmeter_drift_events_total", "model", "trainreal", "phase", "iter") {
			counter = p.Value
		}
	}
	if counter != float64(snap.Events) {
		t.Errorf("convmeter_drift_events_total = %g, want %d", counter, snap.Events)
	}
	var spans int
	for _, sp := range o.Trc.Spans() {
		if strings.HasPrefix(sp.Name, "drift:trainreal/iter") {
			spans++
		}
	}
	if spans != snap.Events {
		t.Errorf("%d drift span annotations, want %d", spans, snap.Events)
	}

	// Recalibrate: the refit path clears the latch and re-detects later.
	st.Recalibrate()
	if got := st.Snapshot(); got.State != StateCalibrating || got.Events != snap.Events {
		t.Errorf("after Recalibrate: %+v", got)
	}
	slow := healthy + 0.060
	for i := 0; i < 8; i++ {
		st.Observe(healthy, slow) // κ recalibrates onto the slow regime
	}
	if got := st.Snapshot().State; got != StateOK {
		t.Errorf("state = %q after refit onto the new regime, want ok", got)
	}
}

// TestIsolatedSpikeStaysSilent: one measurement far off the level — a
// single step the host preempted — is not a shift and must not fire,
// while the same excursion sustained must.
func TestIsolatedSpikeStaysSilent(t *testing.T) {
	m := New(Config{})
	opts := trackerOpts()
	opts.CalibrateN = 2
	st := m.StreamOpts("trainreal", "iter", opts)

	const healthy = 0.0004
	for i := 0; i < 8; i++ {
		st.Observe(healthy, healthy)
	}
	// A 5ms stall on a 0.4ms step: relative residual 11.5, above λ on
	// its own.
	st.Observe(healthy, healthy+0.005)
	for i := 0; i < 8; i++ {
		st.Observe(healthy, healthy)
	}
	if snap := st.Snapshot(); snap.Events != 0 || snap.State != StateOK {
		t.Fatalf("one stalled step raised a drift event: %+v", snap)
	}
	for i := 0; i < 4; i++ {
		st.Observe(healthy, healthy+0.005)
	}
	if snap := st.Snapshot(); snap.Events < 1 || snap.State != StateDrifting {
		t.Fatalf("a sustained stall did not drift: %+v", snap)
	}
}

func TestCleanFeedStaysSilent(t *testing.T) {
	m := New(Config{})
	opts := trackerOpts()
	opts.CalibrateN = 2
	st := m.StreamOpts("trainreal", "iter", opts)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		p := 0.008
		st.Observe(p, p*(1+0.1*math.Abs(rng.NormFloat64())))
	}
	snap := st.Snapshot()
	if snap.Events != 0 || snap.State == StateDrifting {
		t.Errorf("clean noisy feed drifted: %+v", snap)
	}
	if m.Events() != 0 {
		t.Errorf("monitor events = %d on clean feed", m.Events())
	}
}

func TestDegeneratePairsIgnored(t *testing.T) {
	m := New(Config{Defaults: trackerOpts()})
	st := m.Stream("net", "fwd")
	st.Observe(math.NaN(), 1)
	st.Observe(0, 1)
	st.Observe(-1, 1)
	st.Observe(1, math.Inf(1))
	st.Observe(1, 0)
	snap := st.Snapshot()
	if snap.Pairs != 5 {
		t.Errorf("pairs = %d, want 5 (counted)", snap.Pairs)
	}
	if snap.Window.N != 0 {
		t.Errorf("degenerate pairs entered the window: N = %d", snap.Window.N)
	}
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	m := New(Config{Defaults: trackerOpts()})
	m.Stream("b", "iter").Observe(1, 1.1)
	m.Stream("a", "iter").Observe(1, 1.1)
	m.Stream("a", "fwd").Observe(1, 1.1)
	snap := m.Snapshot()
	var order []string
	for _, s := range snap.Streams {
		order = append(order, s.Model+"/"+s.Phase)
	}
	want := []string{"a/fwd", "a/iter", "b/iter"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("snapshot order = %v, want %v", order, want)
		}
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc Snapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output invalid: %v", err)
	}
	if len(doc.Streams) != 3 || doc.Streams[0].Model != "a" {
		t.Errorf("round-tripped snapshot = %+v", doc)
	}
}

// TestConcurrentObserve exercises the stream under -race: concurrent
// feeders, snapshot readers, and stream lookups must be safe.
func TestConcurrentObserve(t *testing.T) {
	o := obs.New()
	m := New(Config{Obs: o, Defaults: trackerOpts()})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := m.Stream("net", "iter")
			for i := 0; i < 200; i++ {
				st.Observe(0.01, 0.0105)
				if i%50 == 0 {
					_ = m.Snapshot()
					_ = st.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := m.Snapshot()
	if len(snap.Streams) != 1 {
		t.Fatalf("streams = %d, want 1 (lookup races must converge)", len(snap.Streams))
	}
	if snap.Streams[0].Pairs != 800 {
		t.Errorf("pairs = %d, want 800", snap.Streams[0].Pairs)
	}
}

// TestNoteCausePropagates: the latest critical-path attribution fed via
// NoteCause must surface on the stream snapshot and ride along on the
// drift event fired afterwards, so an alert names the blamed worker.
func TestNoteCausePropagates(t *testing.T) {
	var nilStream *Stream
	nilStream.NoteCause("wait", 2) // nil-safe

	var hookEvents []Event
	m := New(Config{OnDrift: func(ev Event) { hookEvents = append(hookEvents, ev) }})
	opts := trackerOpts()
	opts.CalibrateN = 2
	st := m.StreamOpts("trainreal", "iter", opts)
	if snap := st.Snapshot(); snap.CausePhase != "" || snap.CauseWorker != -1 {
		t.Fatalf("fresh stream cause = %q/%d, want \"\"/-1", snap.CausePhase, snap.CauseWorker)
	}

	const healthy = 0.008
	for i := 0; i < 8; i++ {
		st.Observe(healthy, healthy*1.05)
	}
	st.NoteCause("wait", 2)
	for i := 0; i < 6; i++ {
		st.Observe(healthy, healthy+0.060)
	}
	snap := st.Snapshot()
	if snap.Events < 1 {
		t.Fatalf("no drift event: %+v", snap)
	}
	if snap.CausePhase != "wait" || snap.CauseWorker != 2 {
		t.Errorf("snapshot cause = %q/%d, want wait/2", snap.CausePhase, snap.CauseWorker)
	}
	if len(hookEvents) == 0 {
		t.Fatal("OnDrift never fired")
	}
	last := hookEvents[len(hookEvents)-1]
	if last.CausePhase != "wait" || last.CauseWorker != 2 {
		t.Errorf("event cause = %q/%d, want wait/2", last.CausePhase, last.CauseWorker)
	}
	// The cause must serialise with the snapshot.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"cause_phase": "wait"`) {
		t.Errorf("snapshot JSON misses cause_phase:\n%s", buf.String())
	}
}
