package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"convmeter/internal/obs"
)

// layerMetric is one declared per-layer metric.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. Time metrics are per workload operation: per
// b1 check round (exec kinds) or campaign (hwreal, core) on infer-real,
// per step on train-real, per nine-experiment pass on analytic.
var perLayer = func() []layerMetric {
	ms := []layerMetric{
		{"exec.conv2d_share", "ratio"},
		{"exec.conv2d_s", "s"},
		{"exec.activation_s", "s"},
		{"exec.batchnorm_s", "s"},
		{"exec.pool_s", "s"},
		{"exec.linear_s", "s"},
		{"exec.elementwise_s", "s"},
	}
	for _, c := range convClasses {
		ms = append(ms,
			layerMetric{"exec." + c + "_gflops", "GFLOP/s"},
			layerMetric{"exec." + c + "_shapes", "count"},
			layerMetric{"exec." + c + "_flop_per_byte", "FLOP/B"})
	}
	ms = append(ms, []layerMetric{
		{"exec.fwd_ms", "ms"},
		{"exec.bwd_ms", "ms"},
		{"exec.new_executor_s", "s"},
		{"exec.fwd_alloc_mb", "MB"},
		{"hwreal.measure_calls", "count"},
		{"hwreal.measure_s", "s"},
		{"hwreal.timed_share", "ratio"},
		{"hwreal.rep_spread", "ratio"},
		{"core.fit_s", "s"},
		{"core.lomo_s", "s"},
		{"core.lomo_mape", "ratio"},
		{"core.lomo_r2", "ratio"},
		{"allreduce.ring_ms", "ms"},
		{"allreduce.gbps", "GB/s"},
		{"allreduce.wait_ms", "ms"},
		{"allreduce.retries", "count"},
		{"train.compute_ms", "ms"},
		{"train.sync_ms", "ms"},
		{"train.update_ms", "ms"},
		{"train.barrier_wait_ms", "ms"},
		{"graph.build_us", "us"},
		{"metrics.extract_us", "us"},
		{"nas.evals", "count"},
		{"nas.feasible_ratio", "ratio"},
	}...)
	for _, id := range experimentIDs {
		ms = append(ms, layerMetric{"experiments." + id + "_s", "s"})
	}
	ms = append(ms, []layerMetric{
		{"dagrun.parallel_efficiency", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.sched_latency_p99_us", "us"},
	}...)
	for _, l := range traceLayers {
		ms = append(ms, layerMetric{"self." + l + "_ms", "ms"})
	}
	return append(ms,
		layerMetric{"trace.overhead_pct", "%"},
		layerMetric{"trace.spans", "count"},
		layerMetric{"host.steal_share", "ratio"})
}()

// cpuTicks is the aggregate line of /proc/stat: CPU time stolen by the
// hypervisor and the total, in clock ticks.
type cpuTicks struct{ steal, total uint64 }

// readCPUTicks reads /proc/stat; it returns zeros where that is not
// available, which makes stealShare report 0.
func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = n
		}
	}
	return t
}

// stealShare is the share of CPU time the hypervisor took between two
// readings. On a shared virtual machine it is the first thing to read
// when a run's timings stand out.
func stealShare(a, b cpuTicks) float64 {
	return ratioOrZero(float64(b.steal-a.steal), float64(b.total-a.total))
}

// kindGroup maps an exec op kind to its per-layer metric.
func kindGroup(kind string) string {
	switch kind {
	case "conv2d":
		return "exec.conv2d_s"
	case "activation":
		return "exec.activation_s"
	case "batchnorm":
		return "exec.batchnorm_s"
	case "pool2d", "adaptiveavgpool":
		return "exec.pool_s"
	case "linear":
		return "exec.linear_s"
	}
	return "exec.elementwise_s" // add, mul, concat, copies (input, flatten, dropout)
}

// execKindSeconds sums the executor's per-op-kind latency histograms
// (attached through exec.Executor.SetObs) into the exec.* groups.
func execKindSeconds(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, p := range reg.Snapshot() {
		if p.Base != "convmeter_exec_op_seconds" {
			continue
		}
		kind := p.Name[strings.Index(p.Name, `kind="`)+len(`kind="`) : len(p.Name)-2]
		out[kindGroup(kind)] += p.Value
	}
	return out
}

// counterTotal sums every series of a counter family.
func counterTotal(reg *obs.Registry, base string) float64 {
	t := 0.0
	for _, p := range reg.Snapshot() {
		if p.Base == base {
			t += p.Value
		}
	}
	return t
}

// rtSnap is a reading of the Go runtime's own counters.
type rtSnap struct {
	gcCycles uint64
	allocB   uint64
	pauseNs  uint64
	sched    *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := rtSnap{pauseNs: ms.PauseTotalNs}
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		snap.allocB = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		snap.sched = s[2].Value.Float64Histogram()
	}
	return snap
}

// allocBytes reads only the cumulative heap allocation counter, cheap
// enough to bracket a single forward pass.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// runtimeDelta fills the runtime.* per-layer metrics with what happened
// between two readings.
func runtimeDelta(a, b rtSnap, layer map[string]float64) {
	layer["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	layer["runtime.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
	layer["runtime.alloc_mb"] = float64(b.allocB-a.allocB) / 1e6
	layer["runtime.sched_latency_p99_us"] = histDeltaQuantile(a.sched, b.sched, 0.99) * 1e6
}

// histDeltaQuantile returns the q-quantile of the observations added
// between two readings of a cumulative runtime histogram, as the upper
// edge of the bucket that holds it (the lower edge for the open top
// bucket).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen > want || seen == total {
			hi := b.Buckets[i+1]
			if hi > 1e300 {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// rssInterval is how often the resident set size is sampled.
const rssInterval = 10 * time.Millisecond

// rssSample is one reading of the resident set size.
type rssSample struct {
	at time.Time
	mb float64
}

// rssSampler reads the resident set size every rssInterval on its own
// goroutine, from start until stop.
type rssSampler struct {
	stopc, done chan struct{}
	samples     []rssSample // owned by the sampling goroutine until done closes
}

// readRSSMB reads the current resident set size from /proc/self/statm.
func readRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("rss: malformed /proc/self/statm %q", raw)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

func startRSS() (*rssSampler, error) {
	if _, err := readRSSMB(); err != nil {
		return nil, err
	}
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			if mb, err := readRSSMB(); err == nil {
				s.samples = append(s.samples, rssSample{time.Now(), mb})
			}
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s, nil
}

// stop ends sampling, waits for the goroutine and returns the samples.
func (s *rssSampler) stop() []rssSample {
	close(s.stopc)
	<-s.done
	return s.samples
}

// opPeaks returns, per operation interval, the highest resident set
// sampled inside it; intervals that hold no sample are skipped. Their
// median is peak_rss_mb: the peak memory of a typical operation, which
// does not hinge on whether one garbage collection happened to land
// early in a run.
func opPeaks(samples []rssSample, ops [][2]time.Time) []float64 {
	var out []float64
	for _, op := range ops {
		peak := 0.0
		for _, s := range samples {
			if !s.at.Before(op[0]) && !s.at.After(op[1]) {
				peak = max(peak, s.mb)
			}
		}
		if peak > 0 {
			out = append(out, peak)
		}
	}
	return out
}

// setPeakRSS records peak_rss_mb: the median over the operations of
// the resident set peak sampled during each.
func (r *report) setPeakRSS(samples []rssSample, ops [][2]time.Time) {
	peaks := opPeaks(samples, ops)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.notef("%-28s %10.1f MB  (median over n=%d operations of each one's sampled peak)", "peak_rss_mb", median(peaks), len(peaks))
}

// timedSetup runs setup n times and returns the last result together
// with the median wall time, so set-up cost is reported as steadily as
// the measured work. Garbage from earlier rounds is collected outside
// the timed region.
func timedSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	runtime.GC()
	return last, median(times), nil
}

// setupRounds is how many times each workload sets up per run.
const setupRounds = 5
