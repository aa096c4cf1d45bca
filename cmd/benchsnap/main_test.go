package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: convmeter
cpu: whatever
BenchmarkZeta-8        	     100	     12345 ns/op	     128 B/op	       3 allocs/op
BenchmarkAlpha-8       	    5000	       321.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkThroughput-8  	     200	      5000 ns/op	  123.45 MB/s	      64 B/op	       1 allocs/op
BenchmarkBare-8        	    1000	      1000 ns/op
PASS
ok  	convmeter	1.234s
`

func TestBuildSnapshot(t *testing.T) {
	snap, err := buildSnapshot(strings.Split(sampleOutput, "\n"), "1x")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SchemaV1 {
		t.Fatalf("schema = %q", snap.Schema)
	}
	names := make([]string, len(snap.Benchmarks))
	for i, b := range snap.Benchmarks {
		names[i] = b.Name
	}
	want := []string{"BenchmarkAlpha-8", "BenchmarkBare-8", "BenchmarkThroughput-8", "BenchmarkZeta-8"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("sorted names = %v, want %v", names, want)
	}
	z := snap.Benchmarks[3]
	if z.Iterations != 100 || z.NsPerOp != 12345 || z.BytesPerOp != 128 || z.AllocsPerOp != 3 {
		t.Fatalf("Zeta parsed as %+v", z)
	}
	th := snap.Benchmarks[2]
	if th.MBPerS != 123.45 || th.AllocsPerOp != 1 {
		t.Fatalf("Throughput parsed as %+v", th)
	}
	bare := snap.Benchmarks[1]
	if bare.NsPerOp != 1000 || bare.BytesPerOp != 0 || bare.AllocsPerOp != 0 {
		t.Fatalf("Bare parsed as %+v", bare)
	}
}

func TestBuildSnapshotMergesRepeatedRuns(t *testing.T) {
	// go test -count=3 repeats each benchmark; the snapshot keeps the
	// fastest ns/op and the worst allocation profile.
	runs := "BenchmarkX-8 100 12 ns/op 8 B/op 1 allocs/op\n" +
		"BenchmarkX-8 120 10 ns/op 8 B/op 1 allocs/op\n" +
		"BenchmarkX-8 90 15 ns/op 16 B/op 2 allocs/op\n"
	snap, err := buildSnapshot(strings.Split(runs, "\n"), "1x")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks, want 1 merged", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.NsPerOp != 10 || b.AllocsPerOp != 2 || b.BytesPerOp != 16 || b.Iterations != 120 {
		t.Fatalf("merged benchmark = %+v", b)
	}
}

func TestBuildSnapshotRejectsEmpty(t *testing.T) {
	if _, err := buildSnapshot([]string{"PASS", "ok"}, "1x"); err == nil {
		t.Fatal("benchmark-free output must be rejected")
	}
}

func TestCompare(t *testing.T) {
	base := newSnapshot("1x")
	base.Benchmarks = []Benchmark{
		{Name: "BenchmarkFast", NsPerOp: 100, AllocsPerOp: 0, Iterations: 1},
		{Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 0, Iterations: 1},
		{Name: "BenchmarkRetired", NsPerOp: 50, Iterations: 1},
	}
	cur := newSnapshot("1x")
	cur.Benchmarks = []Benchmark{
		{Name: "BenchmarkFast", NsPerOp: 110, AllocsPerOp: 0, Iterations: 1},  // +10%: within threshold
		{Name: "BenchmarkHot", NsPerOp: 1200, AllocsPerOp: 2, Iterations: 1},  // +20% and new allocs
		{Name: "BenchmarkFresh", NsPerOp: 10, AllocsPerOp: 99, Iterations: 1}, // no baseline: tolerated
	}
	var log strings.Builder
	regs := compare(base, cur, 0.15, &log)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want ns/op + allocs on BenchmarkHot", regs)
	}
	for _, r := range regs {
		if !strings.Contains(r, "BenchmarkHot") {
			t.Fatalf("unexpected regression %q", r)
		}
	}
	if !strings.Contains(log.String(), "BenchmarkFresh") || !strings.Contains(log.String(), "BenchmarkRetired") {
		t.Fatalf("one-sided benchmarks not reported: %q", log.String())
	}
	if regs := compare(base, base, 0.15, &log); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
}

// TestCompareAcrossGOMAXPROCS matches a baseline taken at GOMAXPROCS=1
// (no name suffix) with a run at GOMAXPROCS=2 ("-2" suffix): the gate
// must still compare every benchmark, not report two disjoint sets.
func TestCompareAcrossGOMAXPROCS(t *testing.T) {
	base := newSnapshot("1x")
	base.Benchmarks = []Benchmark{
		{Name: "BenchmarkHot", NsPerOp: 1000, Iterations: 1},
		{Name: "BenchmarkRing/workers=2", NsPerOp: 100, Iterations: 1},
	}
	cur := newSnapshot("1x")
	cur.Benchmarks = []Benchmark{
		{Name: "BenchmarkHot-2", NsPerOp: 1300, Iterations: 1},
		{Name: "BenchmarkRing/workers=2-2", NsPerOp: 100, Iterations: 1},
	}
	var log strings.Builder
	regs := compare(base, cur, 0.15, &log)
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkHot-2") {
		t.Fatalf("regressions = %v, want BenchmarkHot-2 only", regs)
	}
	if log.Len() != 0 {
		t.Fatalf("suffix-only name differences reported as one-sided: %q", log.String())
	}
}

func TestRetryRegexp(t *testing.T) {
	regs := []string{
		"BenchmarkDataParallelStep/workers=4-8: 1100 ns/op vs baseline 900 (+22%, threshold 15%)",
		"BenchmarkDataParallelStep/workers=2-8: 1100 ns/op vs baseline 900 (+22%, threshold 15%)",
		"BenchmarkRingAllReduce: 1100 ns/op vs baseline 900 (+22%, threshold 15%)",
		"BenchmarkHot: 2 allocs/op, baseline 0 (zero-alloc contract broken)",
	}
	got := retryRegexp(regs)
	want := "^(BenchmarkDataParallelStep|BenchmarkRingAllReduce)$"
	if got != want {
		t.Fatalf("retryRegexp = %q, want %q", got, want)
	}
	if re := retryRegexp(regs[3:]); re != "" {
		t.Fatalf("alloc-only regressions produced regexp %q, want none", re)
	}
}
