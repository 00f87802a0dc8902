package campaign

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestServerMetricsJobTableGolden pins the daemon's /metrics job table
// byte for byte, empty and with two finished jobs: states in lifecycle
// order, jobs in submission order, every # TYPE line present even for
// an empty family, each family's samples grouped under its # TYPE line.
// With the ops plane off the table is the whole document.
func TestServerMetricsJobTableGolden(t *testing.T) {
	srv, m := startTestServer(t, ManagerConfig{})
	checkMetricsGolden(t, "http://"+srv.Addr()+"/metrics", "metrics_empty.prom")
	for i := 0; i < 2; i++ {
		j, err := m.Submit(fastJob())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	checkMetricsGolden(t, "http://"+srv.Addr()+"/metrics", "metrics_jobs.prom")
}

func checkMetricsGolden(t *testing.T, url, name string) {
	t.Helper()
	code, body := httpJSON(t, http.MethodGet, url, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Errorf("/metrics breaks the text format: %v", err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("/metrics diverges from %s (regenerate with -update if intended)\n--- got\n%s--- want\n%s", path, body, want)
	}
}
