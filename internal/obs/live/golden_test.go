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
	reg := obs.NewRegistry()
	reg.Add("suite.runs", 3)
	reg.Add("7leading.count", 1234567)
	reg.SetGauge("power.idle_watts", 120.5)
	reg.SetGauge("power.tiny", 0.00001)
	if err := reg.RegisterHistogram("meter.window_seconds", []float64{0.25, 0.5, 1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterHistogram("shard.idle_seconds", []float64{1, 10}); err != nil {
		t.Fatal(err) // registered, never observed: an all-zero histogram
	}
	for _, v := range []float64{0.1, 0.3, 0.3, 2} {
		reg.Observe("meter.window_seconds", v)
	}
	for _, v := range []float64{0.05, 0.5, 5, 50, 100000} {
		reg.Observe("suite.attempt_seconds", v)
	}
	prog := ProgressSnapshot{
		CellsTotal: 9, CellsDone: 9, CellsFailed: 1, InFlight: 0, Retries: 4,
		DegradedCells: 2, Workers: 3, ElapsedSeconds: 12.375, ETASeconds: -1,
		EventsPublished: 2000000, EventsDropped: 17, Done: true,
	}
	var b bytes.Buffer
	if err := WritePrometheus(&b, reg.Snapshot(), prog); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prometheus.prom", b.Bytes())
}
