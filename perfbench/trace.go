package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"convmeter/internal/obs"
)

// Layers that self time is attributed to, in report order. "bench" is
// the benchmark's own loop (checks, input handling, bookkeeping): the
// part of a measuring phase that no root span covers.
var traceLayers = []string{"bench", "hwreal", "exec", "core", "train", "allreduce", "experiments", "nas", "graph"}

// layerOf maps a span name to the layer whose work it measures. The
// benchmark names its spans after the public call they wrap; the
// program's own spans (exec "fwd"/"bwd", train "step N"/"compute",
// allreduce "grad"/"ar.*") are recognised by their fixed names.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "hwreal."):
		return "hwreal"
	case strings.HasPrefix(name, "exec."), name == "fwd", name == "bwd":
		return "exec"
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "step "), name == "compute", strings.HasPrefix(name, "train."):
		return "train"
	case name == "grad", strings.HasPrefix(name, "ar."), strings.HasPrefix(name, "allreduce."):
		return "allreduce"
	case strings.HasPrefix(name, "experiments."):
		return "experiments"
	case strings.HasPrefix(name, "nas."):
		return "nas"
	case strings.HasPrefix(name, "graph."), strings.HasPrefix(name, "metrics."):
		return "graph"
	}
	return "bench"
}

// cover returns the length of the union of the intervals iv, each
// clipped to [lo, hi].
func cover(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e > s {
			clipped = append(clipped, [2]time.Duration{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curS, curE time.Duration
	for i, x := range clipped {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	return total + curE - curS
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children that overlap
// each other (parallel workers) are counted once.
func selfTimes(spans []obs.SpanRecord) map[int64]time.Duration {
	kids := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.Start + s.Dur})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur - cover(kids[s.ID], s.Start, s.Start+s.Dur)
	}
	return out
}

// layerSelf sums span self times by layer over a measuring phase that
// lasted wall, and charges the part of the phase no root span covers to
// the benchmark's own "bench" layer.
func layerSelf(spans []obs.SpanRecord, lo, hi time.Duration) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	var roots [][2]time.Duration
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
		if s.Parent == 0 {
			roots = append(roots, [2]time.Duration{s.Start, s.Start + s.Dur})
		}
	}
	out["bench"] += hi - lo - cover(roots, lo, hi)
	return out
}

// tracedPhase brackets one traced measuring phase: the spans that end
// inside it and its interval on the tracer's clock.
type tracedPhase struct {
	o      *obs.Obs
	mark   int
	lo, hi time.Duration
	spans  []obs.SpanRecord
}

func startPhase(o *obs.Obs) *tracedPhase {
	return &tracedPhase{o: o, mark: o.Trc.Len(), lo: o.Trc.Now()}
}

func (p *tracedPhase) end() {
	p.hi = p.o.Trc.Now()
	p.spans = p.o.Trc.SpansFrom(p.mark)
}

// selfPer returns each layer's self time in ms divided by units of
// work, keyed as the self.<layer>_ms metrics.
func (p *tracedPhase) selfPer(units float64) map[string]float64 {
	out := map[string]float64{}
	for layer, d := range layerSelf(p.spans, p.lo, p.hi) {
		out["self."+layer+"_ms"] = ratioOrZero(d.Seconds()*1e3, units)
	}
	return out
}

// traceDir is where traced runs leave their span files, relative to the
// working directory (the checkout root when run through run.sh).
const traceDir = ".bench_build/traces"

// writeSpans writes the spans of one traced run as JSON lines, all
// stamped with the run's id. It is called once, after measuring ends.
func writeSpans(runID string, spans []obs.SpanRecord) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(traceDir, runID+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			Run     string  `json:"run"`
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent"`
			Name    string  `json:"name"`
			Layer   string  `json:"layer"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
			Worker  int     `json:"worker"`
		}{runID, s.ID, s.Parent, s.Name, layerOf(s.Name),
			float64(s.Start) / 1e3, float64(s.Start+s.Dur) / 1e3, s.Worker}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
