package suite

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/live"
)

// faultySweepArtifacts runs the fixed-seed faulty sweep under the given
// hub and returns every virtual-plane artefact: results JSON, Chrome
// trace bytes and the metrics snapshot JSON.
func faultySweepArtifacts(t *testing.T, workers int, hub *live.Hub) (results, trace, metrics []byte) {
	t.Helper()
	tracer := obs.NewTracer()
	rs, err := RunSweepPlan(SweepPlan{
		Axis:    []int{2, 4, 8},
		Workers: workers,
		Trace:   tracer,
		Live:    hub,
		Configure: func(procs int) (Config, error) {
			return faultyConfig(procs), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err = json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var tbuf bytes.Buffer
	if err := obs.WriteChromeTrace(&tbuf, tracer.Spans(), tracer.Events()); err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if err := tracer.Registry().Snapshot().WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	return results, tbuf.Bytes(), mbuf.Bytes()
}

// TestLiveHubIsInert extends the inertness invariant to the live plane:
// attaching a hub (event bus, progress, flight recorder, subscribers) to
// a sweep must leave results, trace and metrics byte-identical, under
// both the sequential and the parallel scheduler.
func TestLiveHubIsInert(t *testing.T) {
	baseRes, baseTrace, baseMetrics := faultySweepArtifacts(t, 1, nil)
	for _, workers := range []int{1, 3} {
		hub := live.NewHub()
		sub := hub.Bus().Subscribe(4) // deliberately tiny: forces drops
		res, trace, metrics := faultySweepArtifacts(t, workers, hub)
		if !bytes.Equal(res, baseRes) {
			t.Errorf("workers=%d: live hub changed the results JSON", workers)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Errorf("workers=%d: live hub changed the Chrome trace", workers)
		}
		if !bytes.Equal(metrics, baseMetrics) {
			t.Errorf("workers=%d: live hub changed the metrics snapshot", workers)
		}
		p := hub.Progress()
		if p.CellsDone != 3 || p.CellsTotal != 3 || !p.Done {
			t.Errorf("workers=%d: progress = %+v, want 3/3 done", workers, p)
		}
		// faultyConfig schedules a crash on attempt 0, so every cell
		// retries at least once; the backoff mirror must have counted it.
		if p.Retries == 0 {
			t.Errorf("workers=%d: live retries = 0, want > 0", workers)
		}
		if p.EventsPublished == 0 {
			t.Errorf("workers=%d: no live events published", workers)
		}
		// The undrained subscriber lost events — counted, never silent.
		if p.EventsDropped == 0 || sub.Dropped() == 0 {
			t.Errorf("workers=%d: expected counted drops on the tiny subscriber, got bus=%d sub=%d",
				workers, p.EventsDropped, sub.Dropped())
		}
		sub.Close()
	}
}

// TestSweepLiveLifecycle checks the scheduler publishes the cell
// lifecycle and that the flight recorder retains it for a dump.
func TestSweepLiveLifecycle(t *testing.T) {
	hub := live.NewHub()
	sub := hub.Bus().Subscribe(1024)
	defer sub.Close()
	faultySweepArtifacts(t, 2, hub)

	counts := map[live.Kind]int{}
drain:
	for {
		select {
		case e := <-sub.Events():
			counts[e.Kind]++
		default:
			break drain
		}
	}
	if counts[live.KindSweepStarted] != 1 || counts[live.KindSweepFinished] != 1 {
		t.Errorf("sweep lifecycle counts = %v", counts)
	}
	if counts[live.KindCellStarted] != 3 || counts[live.KindCellFinished] != 3 {
		t.Errorf("cell lifecycle counts = %v", counts)
	}
	if counts[live.KindMeterWindow] == 0 {
		t.Errorf("no meter windows mirrored: %v", counts)
	}
	if counts[live.KindCrash] == 0 || counts[live.KindBackoff] == 0 {
		t.Errorf("fault/retry mirrors missing: %v", counts)
	}

	dir := t.TempDir()
	path := dir + "/flight.json"
	if err := hub.DumpFlight(path, "test"); err != nil {
		t.Fatal(err)
	}
	var d live.FlightDump
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "test" || len(d.Events) == 0 {
		t.Fatalf("flight dump = reason %q with %d events", d.Reason, len(d.Events))
	}
	// The dump must include the most recent event published.
	if d.Events[len(d.Events)-1].Kind != live.KindSweepFinished {
		t.Errorf("last dumped event = %v, want sweep.finished", d.Events[len(d.Events)-1].Kind)
	}
}
