package main

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
)

// SchemaV1 identifies the snapshot format; obscheck -bench validates
// files claiming it.
const SchemaV1 = "convmeter/bench-snapshot/v1"

// Snapshot is one benchmark baseline. Benchmarks are sorted by name so
// committed snapshots diff cleanly.
type Snapshot struct {
	Schema     string      `json:"schema"`
	Go         string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
}

// benchLine matches the standard benchmark output format, e.g.
//
//	BenchmarkFoo-8   1000   1234 ns/op   12.50 MB/s   56 B/op   7 allocs/op
//
// The MB/s, B/op and allocs/op columns are each optional but ordered.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op` +
		`(?:\s+([0-9.]+) MB/s)?` +
		`(?:\s+(\d+) B/op)?` +
		`(?:\s+(\d+) allocs/op)?`)

// buildSnapshot parses raw `go test -bench` output lines into a sorted
// snapshot. A benchmark appearing multiple times (go test -count > 1)
// is merged: minimum ns/op — the measurement least polluted by
// scheduler noise — and maximum bytes/allocs per op, so the alloc
// contract reflects the worst observed run.
func buildSnapshot(lines []string, benchtime string) (*Snapshot, error) {
	snap := newSnapshot(benchtime)
	byName := map[string]*Benchmark{}
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.MBPerS, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		prev, ok := byName[b.Name]
		if !ok {
			c := b
			byName[b.Name] = &c
			snap.Benchmarks = append(snap.Benchmarks, Benchmark{Name: b.Name})
			continue
		}
		prev.NsPerOp = min(prev.NsPerOp, b.NsPerOp)
		prev.MBPerS = max(prev.MBPerS, b.MBPerS)
		prev.BytesPerOp = max(prev.BytesPerOp, b.BytesPerOp)
		prev.AllocsPerOp = max(prev.AllocsPerOp, b.AllocsPerOp)
		prev.Iterations = max(prev.Iterations, b.Iterations)
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	for i := range snap.Benchmarks {
		snap.Benchmarks[i] = *byName[snap.Benchmarks[i].Name]
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	return snap, nil
}

// compare diffs cur against base and returns the regressions: ns/op
// beyond the fractional threshold, or a 0-allocs/op benchmark that now
// allocates (threshold-free — the zero-alloc contract is binary).
// Benchmarks present on only one side are reported to w but tolerated,
// so adding or retiring a benchmark does not break the check.
func compare(base, cur *Snapshot, threshold float64, w io.Writer) []string {
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[benchKey(b.Name)] = b
	}
	var regressions []string
	for _, c := range cur.Benchmarks {
		b, ok := baseBy[benchKey(c.Name)]
		if !ok {
			_, _ = fmt.Fprintf(w, "benchsnap: %s: new benchmark (no baseline)\n", c.Name)
			continue
		}
		delete(baseBy, benchKey(c.Name))
		if b.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op, baseline 0 (zero-alloc contract broken)",
				c.Name, c.AllocsPerOp))
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+threshold) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f (+%.0f%%, threshold %.0f%%)",
				c.Name, c.NsPerOp, b.NsPerOp,
				(c.NsPerOp/b.NsPerOp-1)*100, threshold*100))
		}
	}
	// Deterministic report order for the survivors of the map walk.
	var missing []string
	for _, b := range baseBy {
		missing = append(missing, b.Name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		_, _ = fmt.Fprintf(w, "benchsnap: %s: in baseline but not measured\n", name)
	}
	return regressions
}

// procsSuffix is the "-<GOMAXPROCS>" go test appends to a benchmark
// name when GOMAXPROCS > 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// benchKey is the name compare matches benchmarks by: the name without
// its GOMAXPROCS suffix, so snapshots taken at different GOMAXPROCS
// still compare benchmark by benchmark instead of sharing no name.
func benchKey(name string) string {
	return procsSuffix.ReplaceAllString(name, "")
}
