package campaign

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
	"repro/internal/obs/ops"
)

// startOpsServer is startTestServer with the ops plane enabled: one
// telemetry bundle shared by manager and server, the way the daemon
// wires it.
func startOpsServer(t *testing.T, cfg ManagerConfig) (*Server, *Manager, *ops.Telemetry) {
	t.Helper()
	tel := ops.New()
	t.Cleanup(tel.Close)
	cfg.Ops = tel
	m := newTestManager(t, cfg)
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Manager: m, Ops: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, m, tel
}

func TestServerHealthzVerbose(t *testing.T) {
	srv, _, _ := startOpsServer(t, ManagerConfig{MaxConcurrent: 3})
	base := "http://" + srv.Addr()

	// The plain probe is untouched by the ops plane.
	if code, body := httpJSON(t, http.MethodGet, base+"/healthz", nil); code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("plain healthz: %d %q", code, body)
	}

	code, body := httpJSON(t, http.MethodGet, base+"/healthz?verbose=1", nil)
	if code != http.StatusOK {
		t.Fatalf("verbose healthz: %d %s", code, body)
	}
	var h struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		Slots      int    `json:"slots"`
		SlotsInUse int    `json:"slots_in_use"`
		MaxQueued  int    `json:"max_queued"`
		Accepting  bool   `json:"accepting"`
		Saturated  bool   `json:"saturated"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("verbose healthz not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Slots != 3 || h.QueueDepth != 0 || h.SlotsInUse != 0 {
		t.Errorf("idle verbose healthz = %+v", h)
	}
	if !h.Accepting || h.Saturated {
		t.Errorf("idle server must be accepting and unsaturated: %+v", h)
	}
}

func TestServerStatusz(t *testing.T) {
	srv, m, _ := startOpsServer(t, ManagerConfig{})
	base := "http://" + srv.Addr()
	j, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	// A couple of requests so route stats have something to show.
	httpJSON(t, http.MethodGet, base+"/jobs", nil)
	httpJSON(t, http.MethodGet, base+"/jobs/"+j.ID(), nil)

	code, body := httpJSON(t, http.MethodGet, base+"/statusz", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /statusz: %d %s", code, body)
	}
	var st struct {
		UptimeSeconds float64          `json:"uptime_seconds"`
		JobsByState   map[string]int   `json:"jobs_by_state"`
		QueueDepth    int              `json:"queue_depth"`
		Ops           *ops.StatuszSnap `json:"ops"`
		OpsEnabled    bool             `json:"ops_enabled"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, body)
	}
	if !st.OpsEnabled || st.Ops == nil {
		t.Fatalf("ops plane missing from statusz: %s", body)
	}
	if st.JobsByState["done"] != 1 || st.QueueDepth != 0 {
		t.Errorf("job aggregate wrong: %+v", st.JobsByState)
	}
	if st.Ops.Queue.JobsQueued != 1 || st.Ops.Queue.JobsRun != 1 {
		t.Errorf("ops queue counters wrong: %+v", st.Ops.Queue)
	}
	var sawList bool
	for _, r := range st.Ops.HTTP {
		if r.Route == "GET /jobs" && r.Requests >= 1 {
			sawList = true
		}
	}
	if !sawList {
		t.Errorf("route stats missing GET /jobs: %+v", st.Ops.HTTP)
	}
	if st.Ops.Runtime.Goroutines < 1 {
		t.Errorf("runtime sample empty: %+v", st.Ops.Runtime)
	}
}

func TestServerStatuszWithOpsDisabled(t *testing.T) {
	srv, _ := startTestServer(t, ManagerConfig{})
	code, body := httpJSON(t, http.MethodGet, "http://"+srv.Addr()+"/statusz", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /statusz: %d %s", code, body)
	}
	var st struct {
		Ops        json.RawMessage `json:"ops"`
		OpsEnabled bool            `json:"ops_enabled"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.OpsEnabled || len(st.Ops) > 0 {
		t.Errorf("ops sections present with the plane off: %s", body)
	}
}

func TestServerMetricsIncludeOpsPlane(t *testing.T) {
	srv, m, _ := startOpsServer(t, ManagerConfig{})
	base := "http://" + srv.Addr()
	j, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	httpJSON(t, http.MethodGet, base+"/jobs", nil) // traffic for the route stats
	code, body := httpJSON(t, http.MethodGet, base+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Errorf("/metrics breaks the text format: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		// The campaign exposition that was already there.
		"campaign_jobs_total 1",
		// The ops plane appended after it.
		`ops_http_requests_total{route="GET /jobs",code="200"}`,
		`ops_http_request_seconds_bucket{route="GET /jobs",le="+Inf"}`,
		"campaign_slots ",
		"campaign_jobs_finished_total 1",
		"ops_runtime_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerConcurrentSubscribersSameJob: several clients streaming the
// SAME job's events concurrently (flight-recorder replay racing live
// publishes) each see a complete, strictly-ordered stream — no gaps, no
// Seq duplicates from the replay/live hand-off. Run with -race.
func TestServerConcurrentSubscribersSameJob(t *testing.T) {
	srv, m, _ := startOpsServer(t, ManagerConfig{})
	j, err := m.Submit(slowJob())
	if err != nil {
		t.Fatal(err)
	}
	const subscribers = 4
	url := "http://" + srv.Addr() + "/jobs/" + j.ID() + "/events"
	results := make(chan []live.Event, subscribers)
	for i := 0; i < subscribers; i++ {
		go func() {
			results <- readEventStream(t, url)
		}()
		// Stagger attachment so some subscribers replay more and live less.
		time.Sleep(5 * time.Millisecond)
	}
	waitDone(t, j)
	for i := 0; i < subscribers; i++ {
		var events []live.Event
		select {
		case events = <-results:
		case <-time.After(10 * time.Second):
			t.Fatal("a subscriber's stream did not end")
		}
		if len(events) == 0 {
			t.Fatal("a subscriber saw no events")
		}
		seen := map[uint64]bool{}
		for k, e := range events {
			if seen[e.Seq] {
				t.Fatalf("subscriber %d: duplicate seq %d (replay/live overlap not deduplicated)", i, e.Seq)
			}
			seen[e.Seq] = true
			if k > 0 && e.Seq != events[k-1].Seq+1 {
				t.Fatalf("subscriber %d: seq gap at %d: %d after %d", i, k, e.Seq, events[k-1].Seq)
			}
		}
		// Every stream ends at the terminal event, so all subscribers end
		// on the same final sequence number.
		if last := events[len(events)-1].Seq; last != j.Hub().Progress().EventsPublished {
			t.Errorf("subscriber %d ended at seq %d, hub published %d", i, last, j.Hub().Progress().EventsPublished)
		}
	}
}

// TestOpsPlaneInertOnArtifacts is the separation invariant, pinned:
// running the identical job with the ops plane on and off produces
// byte-identical deterministic artefacts. Only the wall-clock timeline
// (ops.trace.json, sharded jobs only) may differ by existing.
func TestOpsPlaneInertOnArtifacts(t *testing.T) {
	run := func(withOps bool) string {
		cfg := ManagerConfig{Dir: t.TempDir()}
		if withOps {
			tel := ops.New()
			t.Cleanup(tel.Close)
			cfg.Ops = tel
		}
		m := newTestManager(t, cfg)
		j, err := m.Submit(JobSpec{System: "testbed", Sweep: true})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if j.State() != StateDone {
			t.Fatalf("job (ops=%v) ended %s", withOps, j.State())
		}
		return j.Dir()
	}
	withDir, withoutDir := run(true), run(false)
	for _, name := range []string{ResultsFile, TraceFile, MetricsFile, ReportFile} {
		a, aErr := os.ReadFile(filepath.Join(withDir, name))
		b, bErr := os.ReadFile(filepath.Join(withoutDir, name))
		if os.IsNotExist(aErr) && os.IsNotExist(bErr) {
			continue // artefact not produced by this spec either way
		}
		if aErr != nil || bErr != nil {
			t.Fatalf("%s: ops-on err=%v, ops-off err=%v (artefact presence must not depend on the ops plane)", name, aErr, bErr)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between ops on and off — the ops plane leaked into a deterministic artefact", name)
		}
	}
}
