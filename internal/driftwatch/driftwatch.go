// Package driftwatch is ConvMeter's streaming prediction-quality
// monitor: it ingests (predicted, measured) runtime pairs per
// model/phase — from the live training loop, bench sweeps, and the
// experiments harness — and continuously answers the question the
// offline LOMO reports only answer at exit: are the analytical model's
// predictions still tracking reality *right now*?
//
// Each stream keeps a rolling window whose R²/RMSE/NRMSE/MAPE are the
// exact internal/regress definitions (see streamstat.Window.Summary), a
// Welford accumulator over relative residuals, and a Page-Hinkley
// detector that raises a drift event when the residual level shifts.
// The detector reads the running median of three residuals, so a
// single outlying measurement cannot fire it on its own.
// A drift event increments convmeter_drift_events_total{model,phase},
// drops a zero-length span annotation into the trace, latches the
// stream's /drift state to "drifting", and invokes the monitor's
// OnDrift hook (the experiments harness uses it as a refit trigger).
//
// driftwatch sits on the *measured* side of the repository's boundary:
// it consumes wall-clock measurements. The arithmetic it runs on them
// lives in the deterministic sub-package streamstat. All handles are
// nil-safe — a nil *Monitor hands out nil *Streams whose Observe is a
// true no-op — so disabled monitoring costs nothing.
package driftwatch

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"

	"convmeter/internal/driftwatch/streamstat"
	"convmeter/internal/obs"
)

// State is a stream's lifecycle position, as reported on /drift.
type State string

// Stream states. Drifting latches: once a drift event fires the stream
// stays drifting until Recalibrate.
const (
	StateCalibrating State = "calibrating" // collecting the κ calibration pairs
	StateWarmup      State = "warmup"      // detector mean still settling
	StateOK          State = "ok"          // tracking, no shift detected
	StateDrifting    State = "drifting"    // a residual shift was detected
)

// stateValue maps states onto the convmeter_drift_state gauge.
func stateValue(s State) float64 {
	switch s {
	case StateCalibrating:
		return 0
	case StateWarmup:
		return 1
	case StateOK:
		return 2
	case StateDrifting:
		return 3
	}
	return math.NaN()
}

// Options parameterise one stream. The zero value selects the package
// defaults, so feeds only set what they know about their own residual
// scale.
type Options struct {
	// Window is the rolling-window capacity for the online accuracy
	// metrics. Default 128.
	Window int
	// Delta, Lambda, Warmup and Direction parameterise the Page-Hinkley
	// detector; see streamstat.PHConfig for the defaults.
	Delta     float64
	Lambda    float64
	Warmup    int
	Direction streamstat.Direction
	// CalibrateN is the number of leading pairs folded into a one-point
	// hardware calibration factor κ = mean(measured)/mean(predicted):
	// a predictor fitted on simulated coefficients then retargets the
	// deployment host from its first observations, so drift detection
	// measures *shifts*, not the constant sim-vs-host offset. Default 0
	// (κ = 1 — feeds whose predictor already matches the data source,
	// e.g. in-sample sweeps, stay bit-comparable to offline evaluation).
	CalibrateN int
}

func (o Options) window() int {
	if o.Window <= 0 {
		return 128
	}
	return o.Window
}

// Event describes one drift detection, delivered to Config.OnDrift.
type Event struct {
	Model  string
	Phase  string
	Events int     // cumulative events on this stream, including this one
	Stream *Stream // the stream that drifted; hooks may Recalibrate it

	// CausePhase and CauseWorker carry the latest critical-path
	// attribution fed via NoteCause at the moment the event fired:
	// which phase (compute/comm/wait) dominated the last analyzed step
	// and which worker, if any, was blamed for its waits. Empty / -1
	// when no attribution source is wired.
	CausePhase  string
	CauseWorker int
}

// Config parameterises a Monitor.
type Config struct {
	// Defaults applies to streams created via Stream; StreamOpts
	// overrides it per stream.
	Defaults Options
	// OnDrift, when set, is invoked synchronously (outside stream locks)
	// on every drift event.
	OnDrift func(Event)
	// Obs receives the drift counters, gauges and span annotations.
	Obs *obs.Obs
}

// Monitor multiplexes drift streams keyed by (model, phase). A nil
// *Monitor is a valid disabled monitor.
type Monitor struct {
	cfg      Config
	streamsG *obs.Gauge
	mu       sync.Mutex
	streams  map[string]*Stream
}

// New returns an enabled monitor.
func New(cfg Config) *Monitor {
	return &Monitor{
		cfg: cfg, streams: make(map[string]*Stream),
		streamsG: cfg.Obs.Gauge("convmeter_drift_streams",
			"drift streams currently monitored"),
	}
}

// Stream returns the stream for (model, phase), creating it with the
// monitor's default options on first use. Nil on a nil monitor.
func (m *Monitor) Stream(model, phase string) *Stream {
	if m == nil {
		return nil
	}
	return m.StreamOpts(model, phase, m.cfg.Defaults)
}

// StreamOpts returns the stream for (model, phase), creating it with
// opts on first use. Options of an existing stream are not changed:
// the first creator wins, later callers share its stream.
func (m *Monitor) StreamOpts(model, phase string, opts Options) *Stream {
	if m == nil {
		return nil
	}
	key := model + "\x00" + phase
	m.mu.Lock()
	s, ok := m.streams[key]
	m.mu.Unlock()
	if ok {
		return s
	}
	// Build outside the monitor lock: handle registration takes the
	// registry lock and must not nest under ours.
	s = newStream(model, phase, opts, m.cfg)
	m.mu.Lock()
	if prior, ok := m.streams[key]; ok {
		s = prior // lost a creation race; the first insert wins
	} else {
		m.streams[key] = s
	}
	n := len(m.streams)
	m.mu.Unlock()
	m.streamsG.Set(float64(n))
	return s
}

// Events returns the cumulative drift-event count across all streams
// (0 on nil).
func (m *Monitor) Events() int {
	var total int
	for _, s := range m.snapshotStreams() {
		total += s.Events()
	}
	return total
}

func (m *Monitor) snapshotStreams() []*Stream {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]*Stream, 0, len(m.streams))
	for _, s := range m.streams {
		out = append(out, s)
	}
	m.mu.Unlock()
	return out
}

// Snapshot captures every stream's state, sorted by (model, phase).
// Safe on nil (empty snapshot).
func (m *Monitor) Snapshot() Snapshot {
	streams := m.snapshotStreams()
	snap := Snapshot{Streams: make([]StreamSnapshot, 0, len(streams))}
	for _, s := range streams {
		ss := s.Snapshot()
		snap.Streams = append(snap.Streams, ss)
		snap.Events += ss.Events
	}
	sort.Slice(snap.Streams, func(i, j int) bool {
		a, b := snap.Streams[i], snap.Streams[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.Phase < b.Phase
	})
	return snap
}

// WriteJSON writes the monitor snapshot as indented JSON — the /drift
// payload. Safe on nil (writes an empty snapshot).
func (m *Monitor) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Snapshot is the JSON document served on /drift.
type Snapshot struct {
	Streams []StreamSnapshot `json:"streams"`
	Events  int              `json:"events_total"`
}

// WindowReport carries the rolling window's regress metrics.
type WindowReport struct {
	N     int     `json:"n"`
	R2    float64 `json:"r2"`
	RMSE  float64 `json:"rmse"`
	NRMSE float64 `json:"nrmse"`
	MAPE  float64 `json:"mape"`
}

// StreamSnapshot is one stream's entry in the /drift document.
type StreamSnapshot struct {
	Model        string       `json:"model"`
	Phase        string       `json:"phase"`
	State        State        `json:"state"`
	Pairs        int          `json:"pairs"`
	Events       int          `json:"events"`
	Kappa        float64      `json:"kappa"`
	ResidualMean float64      `json:"residual_mean"`
	ResidualStd  float64      `json:"residual_std"`
	CausePhase   string       `json:"cause_phase,omitempty"`
	CauseWorker  int          `json:"cause_worker"`
	Window       WindowReport `json:"window"`
}

// Stream watches one (model, phase) prediction feed. A nil *Stream
// ignores every call.
type Stream struct {
	model, phase string
	driftSpan    string // precomputed span name, so drift events do not build strings on the observe path
	opts         Options
	o            *obs.Obs
	onDrift      func(Event)

	// handles, created once at stream construction
	eventsC *obs.Counter
	pairsC  *obs.Counter
	stateG  *obs.Gauge
	kappaG  *obs.Gauge
	r2G     *obs.Gauge
	rmseG   *obs.Gauge
	nrmseG  *obs.Gauge
	mapeG   *obs.Gauge

	mu          sync.Mutex
	calN        int
	calPred     float64
	calMeas     float64
	kappa       float64
	win         *streamstat.Window
	res         streamstat.Welford
	spike       streamstat.Median3 // filters the residuals ph sees
	ph          *streamstat.PageHinkley
	pairs       int
	events      int
	drifting    bool
	causePhase  string
	causeWorker int
}

func newStream(model, phase string, opts Options, cfg Config) *Stream {
	o := cfg.Obs
	lbl := func(name string) string {
		return obs.Label(name, "model", model, "phase", phase)
	}
	s := &Stream{
		model:     model,
		phase:     phase,
		driftSpan: "drift:" + model + "/" + phase,
		opts:      opts,
		o:         o,
		onDrift:   cfg.OnDrift,

		eventsC: o.Counter(lbl("convmeter_drift_events_total"), "prediction-drift events detected (Page-Hinkley)"),
		pairsC:  o.Counter(lbl("convmeter_drift_pairs_total"), "(predicted, measured) pairs observed"),
		stateG:  o.Gauge(lbl("convmeter_drift_state"), "stream state: 0 calibrating, 1 warmup, 2 ok, 3 drifting"),
		kappaG:  o.Gauge(lbl("convmeter_drift_kappa"), "one-point hardware calibration factor applied to predictions"),
		r2G:     o.Gauge(lbl("convmeter_drift_window_r2"), "rolling-window R² of predicted vs measured"),
		rmseG:   o.Gauge(lbl("convmeter_drift_window_rmse"), "rolling-window RMSE (seconds)"),
		nrmseG:  o.Gauge(lbl("convmeter_drift_window_nrmse"), "rolling-window NRMSE"),
		mapeG:   o.Gauge(lbl("convmeter_drift_window_mape"), "rolling-window MAPE (percent)"),

		kappa:       1,
		causeWorker: -1,
		win:         streamstat.NewWindow(opts.window()),
		ph: streamstat.NewPageHinkley(streamstat.PHConfig{
			Delta:     opts.Delta,
			Lambda:    opts.Lambda,
			Warmup:    opts.Warmup,
			Direction: opts.Direction,
		}),
	}
	s.stateG.Set(stateValue(s.initialState()))
	s.kappaG.Set(1)
	return s
}

func (s *Stream) initialState() State {
	if s.opts.CalibrateN > 0 {
		return StateCalibrating
	}
	return StateWarmup
}

// Model returns the stream's model label ("" on nil).
func (s *Stream) Model() string {
	if s == nil {
		return ""
	}
	return s.model
}

// Phase returns the stream's phase label ("" on nil).
func (s *Stream) Phase() string {
	if s == nil {
		return ""
	}
	return s.phase
}

// Observe feeds one (predicted, measured) pair, both in seconds.
// Non-finite or non-positive predictions are counted but otherwise
// ignored — a degenerate predictor must not wedge the detector.
// Safe on nil and from concurrent goroutines.
func (s *Stream) Observe(predicted, measured float64) {
	if s == nil {
		return
	}
	finite := !math.IsNaN(predicted) && !math.IsInf(predicted, 0) &&
		!math.IsNaN(measured) && !math.IsInf(measured, 0)

	s.mu.Lock()
	s.pairs++
	if !finite || predicted <= 0 || measured <= 0 {
		s.mu.Unlock()
		s.pairsC.Inc()
		return
	}
	if s.calN < s.opts.CalibrateN {
		s.calN++
		s.calPred += predicted
		s.calMeas += measured
		if s.calN == s.opts.CalibrateN && s.calPred > 0 {
			s.kappa = s.calMeas / s.calPred
		}
		kappa, state := s.kappa, s.stateLocked()
		s.mu.Unlock()
		s.pairsC.Inc()
		s.kappaG.Set(kappa)
		s.stateG.Set(stateValue(state))
		return
	}
	adj := s.kappa * predicted
	s.win.Add(adj, measured)
	x := (measured - adj) / adj // relative residual; adj > 0 by the guards above
	s.res.Add(x)
	// The detector sees the running median of three residuals: one step
	// the host stalled is a spike, not a shift, while a straggler that
	// persists reaches the detector one step after its onset.
	fired := s.ph.Add(s.spike.Add(x))
	if fired {
		s.events++
		s.drifting = true
	}
	events := s.events
	state := s.stateLocked()
	sum := s.win.Summary()
	causePhase, causeWorker := s.causePhase, s.causeWorker
	s.mu.Unlock()

	// Telemetry and hooks run outside the stream lock: handle methods are
	// lock-free or take the registry's own lock, and OnDrift may call
	// back into the stream (Recalibrate).
	s.pairsC.Inc()
	s.stateG.Set(stateValue(state))
	s.r2G.Set(sum.R2)
	s.rmseG.Set(sum.RMSE)
	s.nrmseG.Set(sum.NRMSE)
	s.mapeG.Set(sum.MAPE)
	if fired {
		s.eventsC.Inc()
		s.o.Start(s.driftSpan).End()
		if s.onDrift != nil {
			s.onDrift(Event{
				Model: s.model, Phase: s.phase, Events: events, Stream: s,
				CausePhase: causePhase, CauseWorker: causeWorker,
			})
		}
	}
}

// NoteCause records the latest critical-path attribution for this
// stream's feed: the dominant phase of the last analyzed step and the
// blamed worker (-1 when none). Drift events fired by subsequent
// Observe calls carry these values, so an alert names not just *that*
// predictions drifted but *where* the step time went when they did.
// Safe on nil and from concurrent goroutines.
func (s *Stream) NoteCause(phase string, worker int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.causePhase = phase
	s.causeWorker = worker
	s.mu.Unlock()
}

func (s *Stream) stateLocked() State {
	switch {
	case s.drifting:
		return StateDrifting
	case s.calN < s.opts.CalibrateN:
		return StateCalibrating
	case s.ph.N() < s.ph.Warmup():
		return StateWarmup
	default:
		return StateOK
	}
}

// Events returns the stream's cumulative drift-event count (0 on nil).
func (s *Stream) Events() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// Snapshot captures the stream's current state. Safe on nil.
func (s *Stream) Snapshot() StreamSnapshot {
	if s == nil {
		return StreamSnapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := s.win.Summary()
	return StreamSnapshot{
		Model:        s.model,
		Phase:        s.phase,
		State:        s.stateLocked(),
		Pairs:        s.pairs,
		Events:       s.events,
		Kappa:        s.kappa,
		ResidualMean: s.res.Mean(),
		ResidualStd:  s.res.Std(),
		CausePhase:   s.causePhase,
		CauseWorker:  s.causeWorker,
		Window: WindowReport{
			N:     s.win.Len(),
			R2:    sum.R2,
			RMSE:  sum.RMSE,
			NRMSE: sum.NRMSE,
			MAPE:  sum.MAPE,
		},
	}
}

// Recalibrate resets the stream to a fresh calibration: κ, window,
// residual moments and detector restart from the next observations,
// the drifting latch clears, and only the cumulative pair and event
// counts survive. This is the refit path after a detected hardware
// regime change. Safe on nil.
func (s *Stream) Recalibrate() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.calN, s.calPred, s.calMeas = 0, 0, 0
	s.kappa = 1
	s.win = streamstat.NewWindow(s.opts.window())
	s.res = streamstat.Welford{}
	s.spike.Reset()
	s.ph.Reset()
	s.drifting = false
	state := s.stateLocked()
	s.mu.Unlock()
	s.kappaG.Set(1)
	s.stateG.Set(stateValue(state))
}
