package experiments

import (
	"testing"

	"convmeter/internal/driftwatch"
)

// TestLomoEvalFeedsNoDrift: an offline LOMO sweep is an accuracy report,
// not a time series — its pairs come in configuration-sweep order across
// experiments, so Page-Hinkley would read the jumps between them as
// change points. A DAG run of a pure LOMO experiment must therefore
// leave the drift monitor without a single stream.
func TestLomoEvalFeedsNoDrift(t *testing.T) {
	mon := driftwatch.New(driftwatch.Config{})
	cfg := Config{Seed: 1, Quick: true, Drift: mon}
	if _, _, err := RunDAG([]string{"table2"}, cfg, DagConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if snap := mon.Snapshot(); len(snap.Streams) != 0 {
		t.Fatalf("LOMO sweep fed the drift monitor: %d stream(s): %+v", len(snap.Streams), snap.Streams)
	}
}
