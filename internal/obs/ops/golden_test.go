package ops

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// pinnedSample is a fixed runtime self-sample; its heap gauge is above
// 1e6, so it pins the float formatting of integer gauges.
var pinnedSample = RuntimeSample{
	Wall: time.Unix(1700000000, 0), Goroutines: 12,
	HeapAllocBytes: 12345678, HeapSysBytes: 987654, HeapObjects: 4321,
	NumGC: 7, GCPauseTotalSeconds: 0.00125, LastGCPauseSeconds: 0.0001, OpenFDs: -1,
}

// TestWritePrometheusGolden pins the ops exposition byte for byte with
// every wall-clock input fixed: request latencies go straight into the
// route and tenant rows, and the runtime self-sample is pinned. A fresh
// bundle pins the empty families, which keep their # TYPE lines.
func TestWritePrometheusGolden(t *testing.T) {
	empty := New()
	empty.sampled = pinnedSample
	checkGolden(t, "prometheus_empty.prom", empty)

	tel := New()
	m := tel.HTTP()
	for _, r := range []struct {
		route, tenant string
		code          int
		seconds       float64
	}{
		{"GET /jobs", DefaultTenant, 200, 0.0004},
		{"GET /jobs", "team-a", 200, 0.003},
		{"GET /jobs/{id}", `team "b"\c`, 404, 0.02},
		{"POST /jobs", "team-a", 202, 0.7},
		{"POST /jobs", "team-a", 429, 75},
	} {
		m.begin(r.route)
		m.end(r.route, r.tenant, r.code, r.seconds)
	}
	m.begin("GET /jobs/{id}/events") // one stream still open
	q := tel.Queue()
	q.Configure(2, 16)
	q.JobQueued()
	q.JobQueued()
	q.JobStarted(0.05)
	q.JobStarted(2)
	q.JobFinished(30)
	q.Sample(0, 1)
	tel.sampled = pinnedSample
	checkGolden(t, "prometheus.prom", tel)
}

// checkGolden renders tel and compares it with testdata/name byte for
// byte; -update rewrites the file instead.
func checkGolden(t *testing.T, name string, tel *Telemetry) {
	t.Helper()
	var b bytes.Buffer
	if err := WritePrometheus(&b, tel); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("output diverges from %s (regenerate with -update if intended)\n--- got\n%s--- want\n%s", path, b.Bytes(), want)
	}
}
