package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs/live"
)

// writeFaultPlan saves the standard crashy test plan and returns its path.
func writeFaultPlan(t *testing.T, dir string) string {
	t.Helper()
	planPath := filepath.Join(dir, "plan.json")
	plan := &faults.Plan{
		Crashes:   []faults.Crash{{Benchmark: "HPL", Node: 1, At: 100, Attempt: 0}},
		Straggler: &faults.Straggler{Prob: 1, ClockFactor: 0.9},
	}
	writeJSONFile(t, planPath, plan)
	return planPath
}

// TestRunLiveIsInert is the cmd-level inertness gate for the wall-clock
// plane: a sweep with -serve, -progress and -events enabled must produce
// byte-identical results JSON, Chrome trace and metrics snapshot to the
// same sweep with the live plane off.
func TestRunLiveIsInert(t *testing.T) {
	dir := t.TempDir()
	planPath := writeFaultPlan(t, dir)

	runOnce := func(name string, withLive bool) (res, trace, metrics []byte) {
		out := filepath.Join(dir, name+".json")
		tracePath := filepath.Join(dir, name+".trace.json")
		metricsPath := filepath.Join(dir, name+".metrics.json")
		o := options{
			system: "testbed", sweep: true, workers: 2, out: out,
			placement: "cyclic", faultsPath: planPath, retries: 2,
			tracePath: tracePath, metricsPath: metricsPath,
		}
		if withLive {
			// Wall-clock pacing widens the mid-run polling window; the
			// inertness comparison below doubles as proof that the pause
			// never reaches the virtual plane.
			o.cellPause = 10 * time.Millisecond
		}
		var pollErr error
		var polled ProgressPoll
		var wg sync.WaitGroup
		if withLive {
			o.serve = "127.0.0.1:0"
			o.progressEvery = 10 * time.Millisecond
			o.eventsPath = filepath.Join(dir, name+".events.ndjson")
			o.onServe = func(addr string) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					polled, pollErr = pollProgress(addr, 2*time.Second)
				}()
			}
		}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if pollErr != nil {
			t.Fatalf("%s: polling /progress: %v", name, pollErr)
		}
		if withLive {
			if polled.Last.CellsTotal != 8 {
				t.Errorf("/progress cells_total = %d, want 8", polled.Last.CellsTotal)
			}
			if !polled.SawMetrics {
				t.Error("/metrics never answered during the run")
			}
			// The NDJSON event log must be non-empty valid JSON lines.
			b, err := os.ReadFile(o.eventsPath)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			if len(lines) == 0 || lines[0] == "" {
				t.Fatal("event log is empty")
			}
			for i, ln := range lines {
				var e live.Event
				if err := json.Unmarshal([]byte(ln), &e); err != nil {
					t.Fatalf("event log line %d not JSON: %v", i, err)
				}
			}
		}
		read := func(p string) []byte {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		return read(out), read(tracePath), read(metricsPath)
	}

	baseRes, baseTrace, baseMetrics := runOnce("plain", false)
	liveRes, liveTrace, liveMetrics := runOnce("live", true)
	if !bytes.Equal(liveRes, baseRes) {
		t.Error("live plane changed the results JSON")
	}
	if !bytes.Equal(liveTrace, baseTrace) {
		t.Error("live plane changed the Chrome trace")
	}
	if !bytes.Equal(liveMetrics, baseMetrics) {
		t.Error("live plane changed the metrics snapshot")
	}
}

// ProgressPoll summarises what pollProgress saw.
type ProgressPoll struct {
	Last       live.ProgressSnapshot
	Polls      int
	SawMetrics bool
	// ServerClosed reports that the server went away between polls. run()
	// only shuts the server down after the campaign finishes, so this
	// implies completion even when the final done=true snapshot was missed.
	ServerClosed bool
}

// pollProgress polls /progress (and /metrics once) until the snapshot
// reports done, the server closes, or the deadline passes.
func pollProgress(addr string, deadline time.Duration) (ProgressPoll, error) {
	var out ProgressPoll
	base := "http://" + addr
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		resp, err := http.Get(base + "/progress")
		if err != nil {
			if out.Polls > 0 {
				out.ServerClosed = true
				return out, nil
			}
			return out, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return out, err
		}
		var p live.ProgressSnapshot
		if err := json.Unmarshal(b, &p); err != nil {
			return out, fmt.Errorf("bad /progress payload %q: %v", b, err)
		}
		out.Last = p
		out.Polls++
		if !out.SawMetrics {
			if mr, err := http.Get(base + "/metrics"); err == nil {
				mb, _ := io.ReadAll(mr.Body)
				mr.Body.Close()
				if strings.Contains(string(mb), "live_cells_total") {
					out.SawMetrics = true
				}
			}
		}
		if p.Done {
			return out, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return out, fmt.Errorf("run did not finish within %v (last: %+v)", deadline, out.Last)
}

// TestRunAbortDumpsFlightRecorder: a sweep aborted mid-run (via the
// interrupt test hook) must leave a flight-recorder dump holding the
// campaign's recent events.
func TestRunAbortDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	flight := filepath.Join(dir, "flight.json")
	err := run(options{
		system: "testbed", sweep: true, out: out, placement: "cyclic",
		flightPath:     flight,
		interruptAfter: 2,
	})
	if err == nil {
		t.Fatal("expected the interrupt hook to abort the sweep")
	}
	b, err := os.ReadFile(flight)
	if err != nil {
		t.Fatalf("no flight dump after abort: %v", err)
	}
	var d live.FlightDump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("flight dump not JSON: %v", err)
	}
	if !strings.HasPrefix(d.Reason, "abort: ") {
		t.Errorf("dump reason = %q, want abort:", d.Reason)
	}
	if len(d.Events) == 0 || d.TotalEvents == 0 {
		t.Fatalf("flight dump is empty: %+v", d)
	}
	// The dump must contain mirrored record traffic, not just lifecycle.
	kinds := map[live.Kind]bool{}
	for _, e := range d.Events {
		kinds[e.Kind] = true
	}
	if !kinds[live.KindMeterWindow] && !kinds[live.KindAttempt] {
		t.Errorf("dump kinds = %v, want mirrored spans (meter windows / attempts)", kinds)
	}
}

// TestRunSingleRunLiveLifecycle: a non-sweep invocation is a one-cell
// campaign on the live plane.
func TestRunSingleRunLiveLifecycle(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	var got ProgressPoll
	var pollErr error
	var wg sync.WaitGroup
	err := run(options{
		system: "testbed", procs: 4, out: out, placement: "cyclic",
		serve:     "127.0.0.1:0",
		cellPause: 30 * time.Millisecond,
		onServe: func(addr string) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, pollErr = pollProgress(addr, 2*time.Second)
			}()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if pollErr != nil {
		t.Fatal(pollErr)
	}
	if got.Last.CellsTotal != 1 {
		t.Errorf("final progress = %+v, want cells_total 1", got.Last)
	}
	if !got.Last.Done && !got.ServerClosed {
		t.Errorf("poller saw neither done nor server shutdown: %+v", got)
	}
	if got.Last.Done && got.Last.CellsDone != 1 {
		t.Errorf("final progress = %+v, want 1/1 done", got.Last)
	}
}
