// Package alert is ConvMeter's in-process alerting engine: a rule
// evaluator over the tsdb retention layer with threshold, absence and
// multi-window SLO burn-rate strategies, a firing/resolved lifecycle
// with flap latching, and a bounded transition history. State is
// mirrored into the metrics registry as convmeter_alert_* series and
// into the tracer as zero-duration annotation spans, so alert activity
// appears in every export surface the repository already has.
//
// Evaluation is deterministic with respect to the retained samples:
// rules are evaluated in declaration order against explicit windowed
// queries (see tsdb and seriesq), so two engines fed identical stores
// at identical timestamps produce identical lifecycles. The steady-state
// Eval path performs no in-package allocations — per-rule metric
// handles and span names are precomputed at construction, and the
// transition history is a preallocated ring — and a nil *Engine is a
// zero-cost no-op, matching the rest of the obs surface.
package alert

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"convmeter/internal/obs"
	"convmeter/internal/obs/tsdb"
)

// State is a rule's lifecycle position. Inactive rules have never
// fired; resolved rules fired at least once and recovered.
type State string

const (
	StateInactive State = "inactive"
	StateFiring   State = "firing"
	StateResolved State = "resolved"
)

// Config parameterises an Engine.
type Config struct {
	// Obs receives the engine's convmeter_alert_* telemetry and the
	// transition annotation spans. Required.
	Obs *obs.Obs
	// DB is the retention store rules are evaluated against. Required:
	// New returns a nil (disabled) engine without it.
	DB *tsdb.DB
	// Rules is the rule set, evaluated in order. Default BuiltinRules(1).
	Rules []Rule
	// Interval is Start's evaluation cadence. Default 1s.
	Interval time.Duration
	// History caps the transition ring. Default 256.
	History int
}

// Transition is one lifecycle edge in the engine's history.
type Transition struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	From     State    `json:"from"`
	To       State    `json:"to"`
	T        float64  `json:"t_seconds"`
	Value    float64  `json:"value"`
}

// Status is one rule's current state, as reported by Snapshot and the
// /alerts endpoint.
type Status struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Kind     Kind     `json:"kind"`
	Summary  string   `json:"summary,omitempty"`
	State    State    `json:"state"`
	Since    float64  `json:"since_seconds"`
	Value    float64  `json:"value"`
}

// ruleState is the engine's mutable per-rule record, with the handles
// and span names precomputed so Eval allocates nothing in-package.
type ruleState struct {
	rule        Rule
	state       State
	since       time.Duration // when the current state was entered
	firedAt     time.Duration // when the rule last fired
	value       float64       // last evaluated value
	firingG     *obs.Gauge
	transC      *obs.Counter
	fireSpan    string
	resolveSpan string
}

// Engine evaluates a rule set against a retention store.
type Engine struct {
	o        *obs.Obs
	db       *tsdb.DB
	interval time.Duration

	evalsC *obs.Counter
	critG  *obs.Gauge

	mu       sync.Mutex
	rules    []ruleState
	hist     []Transition
	histNext int
	histFull bool
	critical int

	loopMu  sync.Mutex
	quit    chan struct{}
	done    chan struct{}
	started bool
}

// New returns an enabled engine, or nil (a valid disabled engine) when
// cfg.Obs or cfg.DB is nil.
func New(cfg Config) *Engine {
	if cfg.Obs == nil || cfg.DB == nil {
		return nil
	}
	if cfg.Rules == nil {
		cfg.Rules = BuiltinRules(1)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.History <= 0 {
		cfg.History = 256
	}
	e := &Engine{
		o: cfg.Obs, db: cfg.DB, interval: cfg.Interval,
		hist: make([]Transition, cfg.History),
		evalsC: cfg.Obs.Counter("convmeter_alert_evals_total",
			"alert rule-set evaluation sweeps"),
		critG: cfg.Obs.Gauge("convmeter_alert_firing_critical",
			"critical alerts currently firing (readiness gates on this)"),
	}
	for _, r := range cfg.Rules {
		e.rules = append(e.rules, ruleState{
			rule:  r,
			state: StateInactive,
			firingG: cfg.Obs.Gauge(
				obs.Label("convmeter_alert_firing", "rule", r.Name, "severity", string(r.Severity)),
				"whether the alert rule is firing (1) or not (0)"),
			transC: cfg.Obs.Counter(
				obs.Label("convmeter_alert_transitions_total", "rule", r.Name),
				"alert lifecycle transitions"),
			fireSpan:    "alert/fire:" + r.Name,
			resolveSpan: "alert/resolve:" + r.Name,
		})
	}
	return e
}

// Eval runs one evaluation sweep at timestamp now, applying lifecycle
// transitions: a true condition fires the rule, a false one resolves it
// once the latch has elapsed. Nil-safe.
func (e *Engine) Eval(now time.Duration) {
	if e == nil {
		return
	}
	e.mu.Lock()
	critical := 0
	for i := range e.rules {
		rs := &e.rules[i]
		value, active := e.condition(&rs.rule, now)
		rs.value = value
		switch {
		case active && rs.state != StateFiring:
			e.transition(rs, StateFiring, now, value)
			rs.firedAt = now
		case !active && rs.state == StateFiring:
			if now-rs.firedAt >= rs.rule.Latch {
				e.transition(rs, StateResolved, now, value)
			}
		}
		if rs.state == StateFiring && rs.rule.Severity == SevCritical {
			critical++
		}
	}
	e.critical = critical
	e.mu.Unlock()
	e.critG.Set(float64(critical))
	e.evalsC.Inc()
}

// transition moves rs to state, recording the edge in the history ring
// and mirroring it as a metric flip and an annotation span. Callers
// hold e.mu.
func (e *Engine) transition(rs *ruleState, to State, now time.Duration, value float64) {
	e.hist[e.histNext] = Transition{
		Rule: rs.rule.Name, Severity: rs.rule.Severity,
		From: rs.state, To: to, T: now.Seconds(), Value: value,
	}
	e.histNext++
	if e.histNext == len(e.hist) {
		e.histNext = 0
		e.histFull = true
	}
	rs.state = to
	rs.since = now
	rs.transC.Inc()
	if to == StateFiring {
		rs.firingG.Set(1)
		e.o.Start(rs.fireSpan).End()
	} else {
		rs.firingG.Set(0)
		e.o.Start(rs.resolveSpan).End()
	}
}

// condition evaluates one rule against the store, returning the
// measured value and whether the rule's predicate holds. Missing data
// reads as not-active for threshold and burn-rate rules (no evidence is
// not an incident) and as active for absence rules past their grace.
func (e *Engine) condition(r *Rule, now time.Duration) (float64, bool) {
	switch r.Kind {
	case KindThreshold:
		var v float64
		var ok bool
		if r.Mode == ModeValue {
			var st tsdb.GaugeStats
			st, ok = e.db.Stats(r.Series, now, r.Window)
			v = st.Last
		} else {
			v, ok = e.db.Rate(r.Series, now, r.Window)
		}
		if !ok {
			return 0, false
		}
		if r.Op == OpBelow {
			return v, v < r.Value
		}
		return v, v > r.Value
	case KindAbsence:
		if now < r.Window { // startup grace: the window has not existed yet
			return 0, false
		}
		n := len(e.db.Range(r.Series, now, r.Window))
		return float64(n), n == 0
	case KindBurnRate:
		fs, fl := e.burn(r, now, r.FastShort), e.burn(r, now, r.FastLong)
		ss, sl := e.burn(r, now, r.SlowShort), e.burn(r, now, r.SlowLong)
		fast := fs > r.FastFactor*r.Budget && fl > r.FastFactor*r.Budget
		slow := ss > r.SlowFactor*r.Budget && sl > r.SlowFactor*r.Budget
		v := fs
		if ss > v {
			v = ss
		}
		return v, fast || slow
	}
	return 0, false
}

// burn computes a burn-rate rule's error ratio rate(num)/rate(den)
// over one window; missing data or a zero denominator reads as 0.
func (e *Engine) burn(r *Rule, now, window time.Duration) float64 {
	num, ok := e.db.Rate(r.Num, now, window)
	if !ok {
		return 0
	}
	den, ok := e.db.Rate(r.Den, now, window)
	if !ok || den <= 0 {
		return 0
	}
	return num / den
}

// FiringCritical returns the number of critical rules currently firing
// — the readiness gate. Nil-safe (0).
func (e *Engine) FiringCritical() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.critical
}

// Snapshot returns every rule's current status, sorted by rule name.
// Nil-safe (nil).
func (e *Engine) Snapshot() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, 0, len(e.rules))
	for i := range e.rules {
		rs := &e.rules[i]
		out = append(out, Status{
			Rule: rs.rule.Name, Severity: rs.rule.Severity,
			Kind: rs.rule.Kind, Summary: rs.rule.Summary,
			State: rs.state, Since: rs.since.Seconds(), Value: rs.value,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// History returns the recorded transitions in chronological order.
// Nil-safe (nil).
func (e *Engine) History() []Transition {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	n, start := e.histNext, 0
	if e.histFull {
		n, start = len(e.hist), e.histNext
	}
	out := make([]Transition, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, e.hist[(start+i)%len(e.hist)])
	}
	return out
}

// Report is the exported alert document, schema convmeter/alerts/v1 —
// what /alerts serves and obscheck validates as alerts.json.
type Report struct {
	Schema      string       `json:"schema"`
	NowSeconds  float64      `json:"now_seconds"`
	Alerts      []Status     `json:"alerts"`
	Transitions []Transition `json:"transitions"`
}

// ReportSchema identifies the alert export format.
const ReportSchema = "convmeter/alerts/v1"

// Snapshot-backed export: current statuses plus the transition history.
// Nil-safe (a valid empty report).
func (e *Engine) Report(now time.Duration) Report {
	return Report{
		Schema:      ReportSchema,
		NowSeconds:  now.Seconds(),
		Alerts:      e.Snapshot(),
		Transitions: e.History(),
	}
}

// WriteJSON writes the alert report for timestamp now. Nil-safe.
func (e *Engine) WriteJSON(w io.Writer, now time.Duration) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e.Report(now))
}

// Start launches the background evaluation loop at the configured
// cadence on the store's clock. Stop terminates it. Nil-safe and
// idempotent.
func (e *Engine) Start() {
	if e == nil {
		return
	}
	e.loopMu.Lock()
	defer e.loopMu.Unlock()
	if e.started {
		return
	}
	e.started = true
	e.quit = make(chan struct{})
	e.done = make(chan struct{})
	go e.loop(e.quit, e.done)
}

func (e *Engine) loop(quit, done chan struct{}) {
	tick := time.NewTicker(e.interval)
	defer tick.Stop()
	defer close(done)
	for {
		select {
		case <-tick.C:
			e.Eval(e.db.Now())
		case <-quit:
			return
		}
	}
}

// Stop terminates the background evaluation loop and waits for it to
// exit. Nil-safe; a no-op unless Start ran.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.loopMu.Lock()
	if !e.started {
		e.loopMu.Unlock()
		return
	}
	e.started = false
	quit, done := e.quit, e.done
	e.loopMu.Unlock()
	// The receive blocks until the loop exits; holding loopMu across it
	// would stall a concurrent Start.
	close(quit)
	<-done
}
