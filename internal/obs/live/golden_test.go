package live

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name byte for byte; -update
// rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s (regenerate with -update if intended)\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestWritePrometheusGolden pins the exposition byte for byte: family
// order, name sanitising, number formatting (integers above 1e6 render
// in exponent form through the float path) and cumulative buckets.
func TestWritePrometheusGolden(t *testing.T) {
	tr := obs.NewTracer()
	tr.Count("suite.runs", 3)
	tr.Count("7leading.count", 1234567)
	tr.Gauge("power.idle_watts", 120.5)
	tr.Gauge("power.tiny", 0.00001)
	for _, v := range []float64{0.05, 0.5, 5, 50, 100000} {
		tr.Observe("suite.attempt_seconds", v)
	}
	snap := tr.Registry().Snapshot()
	// Histograms with their own bounds, one never observed (all zero),
	// sorting before suite.attempt_seconds as Snapshot sorts them.
	snap.Histograms = append([]obs.HistSnap{
		{Name: "meter.window_seconds", Bounds: []float64{0.25, 0.5, 1}, Counts: []uint64{1, 2, 0, 1}, Count: 4, Sum: 2.7},
		{Name: "shard.idle_seconds", Bounds: []float64{1, 10}, Counts: []uint64{0, 0, 0}},
	}, snap.Histograms...)
	prog := ProgressSnapshot{
		CellsTotal: 9, CellsDone: 9, CellsFailed: 1, InFlight: 0, Retries: 4,
		DegradedCells: 2, Workers: 3, ElapsedSeconds: 12.375, ETASeconds: -1,
		EventsPublished: 2000000, EventsDropped: 17, Done: true,
	}
	var b bytes.Buffer
	if err := WritePrometheus(&b, snap, prog); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prometheus.prom", b.Bytes())
}
