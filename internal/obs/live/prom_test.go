package live

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestWritePrometheus(t *testing.T) {
	tr := obs.NewTracer()
	tr.Count("suite.runs", 3)
	tr.Gauge("power.idle_watts", 120.5)
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		tr.Observe("suite.attempt_seconds", v)
	}
	prog := ProgressSnapshot{
		CellsTotal: 8, CellsDone: 3, InFlight: 2, Retries: 1,
		DegradedCells: 1, Workers: 2, ElapsedSeconds: 12.5, ETASeconds: 20,
		EventsPublished: 42, EventsDropped: 0, Done: false,
	}
	var b strings.Builder
	if err := WritePrometheus(&b, tr.Registry().Snapshot(), prog); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE suite_runs counter\nsuite_runs 3\n",
		"# TYPE power_idle_watts gauge\npower_idle_watts 120.5\n",
		"# TYPE suite_attempt_seconds histogram\n",
		`suite_attempt_seconds_bucket{le="0.1"} 1`,
		`suite_attempt_seconds_bucket{le="1"} 2`,
		`suite_attempt_seconds_bucket{le="10"} 3`,
		`suite_attempt_seconds_bucket{le="60"} 4`,
		`suite_attempt_seconds_bucket{le="+Inf"} 4`,
		"suite_attempt_seconds_sum 55.55\n",
		"suite_attempt_seconds_count 4\n",
		"live_cells_total 8\n",
		"live_cells_done 3\n",
		"live_in_flight 2\n",
		"live_retries 1\n",
		"live_degraded_cells 1\n",
		"live_eta_seconds 20\n",
		"live_events_published 42\n",
		"live_done 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// Buckets must be cumulative: le="60" includes everything below it.
	if strings.Contains(out, `le="60"} 1`) {
		t.Error("buckets look per-bucket, not cumulative")
	}
}
