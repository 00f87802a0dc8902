package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/live"
)

func startTestServer(t *testing.T, cfg ManagerConfig) (*Server, *Manager) {
	t.Helper()
	m := newTestManager(t, cfg)
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Manager: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, m
}

func httpJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// postRaw posts a raw body (for malformed-JSON cases).
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func decodeReason(t *testing.T, body []byte) string {
	t.Helper()
	var eb struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, body)
	}
	if eb.Error == "" {
		t.Fatalf("error body has no message: %s", body)
	}
	return eb.Reason
}

func TestServerRejectsBadSubmissions(t *testing.T) {
	srv, _ := startTestServer(t, ManagerConfig{})
	// A server that can shard: its factory must never be reached, because
	// every sharded submission below is rejected before it is queued.
	sharding, _ := startTestServer(t, ManagerConfig{Worker: func() (*exec.Cmd, error) {
		t.Error("worker factory called for a rejected job")
		return nil, errors.New("unreachable")
	}})
	for _, tc := range []struct {
		name   string
		srv    *Server
		body   string
		code   int
		reason string
	}{
		{"malformed JSON", srv, `{"system": "testbed`, http.StatusBadRequest, ReasonBadJSON},
		{"not an object", srv, `[1,2,3]`, http.StatusBadRequest, ReasonBadJSON},
		{"unknown system", srv, `{"system":"cray"}`, http.StatusBadRequest, ReasonUnknownSystem},
		{"unknown benchmark", srv, `{"system":"testbed","benchmarks":["linpack9000"]}`, http.StatusBadRequest, ReasonUnknownBenchmark},
		{"negative shards", srv, `{"system":"testbed","shards":-4}`, http.StatusBadRequest, ReasonBadSpec},
		{"negative workers", srv, `{"system":"testbed","workers":-1}`, http.StatusBadRequest, ReasonBadSpec},
		{"sharded without factory", srv, `{"system":"testbed","sweep":true,"shards":2}`, http.StatusBadRequest, ReasonNoWorkerFactory},
		{"out-of-range fault plan", srv, `{"system":"testbed","faults":{"crash_prob":5}}`, http.StatusBadRequest, ReasonBadSpec},
		{"procs above cores", srv, `{"system":"testbed","procs":9}`, http.StatusBadRequest, ReasonBadSpec},
		{"sharded out-of-range fault plan", sharding, `{"system":"testbed","sweep":true,"shards":2,"faults":{"crash_prob":5}}`, http.StatusBadRequest, ReasonBadSpec},
	} {
		code, body := postRaw(t, "http://"+tc.srv.Addr()+"/jobs", tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.code, body)
			continue
		}
		if reason := decodeReason(t, body); reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, reason, tc.reason)
		}
	}
	// Nothing above may have created a job.
	for _, s := range []*Server{srv, sharding} {
		code, body := httpJSON(t, http.MethodGet, "http://"+s.Addr()+"/jobs", nil)
		if code != http.StatusOK || !strings.Contains(string(body), `"jobs": []`) {
			t.Fatalf("job list after rejections: %d %s", code, body)
		}
	}
}

func TestServerJobLifecycleOverHTTP(t *testing.T) {
	srv, _ := startTestServer(t, ManagerConfig{})
	base := "http://" + srv.Addr()

	// The pause holds the job's one cell back, so it cannot be done by
	// the time the handler encodes its reply; fastJob alone could be.
	paced := fastJob()
	paced.CellPauseMS = 200
	code, body := httpJSON(t, http.MethodPost, base+"/jobs", paced)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submitted status = %+v", st)
	}

	// Poll to done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body = httpJSON(t, http.MethodGet, base+"/jobs/"+st.ID, nil)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d %s", st.ID, code, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	code, body = httpJSON(t, http.MethodGet, base+"/jobs/"+st.ID+"/report", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "greenbench campaign") {
		t.Fatalf("GET report: %d %s", code, body)
	}

	// Cancelling a finished job conflicts.
	code, body = httpJSON(t, http.MethodDelete, base+"/jobs/"+st.ID, nil)
	if code != http.StatusConflict || decodeReason(t, body) != ReasonJobFinished {
		t.Fatalf("DELETE finished job: %d %s", code, body)
	}
}

func TestServerUnknownJobIs404(t *testing.T) {
	srv, _ := startTestServer(t, ManagerConfig{})
	base := "http://" + srv.Addr()
	for _, url := range []string{
		base + "/jobs/job-9999",
		base + "/jobs/job-9999/events",
		base + "/jobs/job-9999/report",
	} {
		code, body := httpJSON(t, http.MethodGet, url, nil)
		if code != http.StatusNotFound || decodeReason(t, body) != ReasonJobNotFound {
			t.Errorf("GET %s: %d %s", url, code, body)
		}
	}
	code, body := httpJSON(t, http.MethodDelete, base+"/jobs/job-9999", nil)
	if code != http.StatusNotFound || decodeReason(t, body) != ReasonJobNotFound {
		t.Errorf("DELETE unknown job: %d %s", code, body)
	}
}

func TestServerReportNotReady(t *testing.T) {
	srv, m := startTestServer(t, ManagerConfig{MaxConcurrent: 1})
	if _, err := m.Submit(slowJob()); err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	code, body := httpJSON(t, http.MethodGet, "http://"+srv.Addr()+"/jobs/"+queued.ID()+"/report", nil)
	if code != http.StatusNotFound || decodeReason(t, body) != ReasonReportNotReady {
		t.Fatalf("report of queued job: %d %s", code, body)
	}
}

func TestServerHealthAndBuildinfo(t *testing.T) {
	srv, _ := startTestServer(t, ManagerConfig{})
	base := "http://" + srv.Addr()
	if code, body := httpJSON(t, http.MethodGet, base+"/healthz", nil); code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	code, body := httpJSON(t, http.MethodGet, base+"/buildinfo", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "go_version") {
		t.Fatalf("buildinfo: %d %s", code, body)
	}
	if code, body := httpJSON(t, http.MethodGet, base+"/", nil); code != http.StatusOK || !strings.Contains(string(body), "POST   /jobs") {
		t.Fatalf("index: %d %s", code, body)
	}
}

// readEventStream consumes a job's /events NDJSON stream to EOF and
// returns the decoded events.
func readEventStream(t *testing.T, url string) []live.Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var events []live.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		var e live.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("stream line not JSON: %v\n%s", err, sc.Bytes())
		}
		events = append(events, e)
	}
	return events
}

// TestServerEventsStreamEndsAtTerminalState: a stream attached to a
// running job receives its events without gaps or duplicates and
// terminates on its own once the job is done.
func TestServerEventsStreamEndsAtTerminalState(t *testing.T) {
	srv, m := startTestServer(t, ManagerConfig{})
	j, err := m.Submit(slowJob())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []live.Event, 1)
	go func() {
		done <- readEventStream(t, "http://"+srv.Addr()+"/jobs/"+j.ID()+"/events")
	}()
	waitDone(t, j)
	var events []live.Event
	select {
	case events = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not end after the job finished")
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	for i, e := range events {
		if e.Seq != events[0].Seq+uint64(i) {
			t.Fatalf("stream seq gap or duplicate at %d: %d after %d", i, e.Seq, events[i-1].Seq)
		}
	}
}

// TestServerEventsReplayForFinishedJob: attaching after the job finished
// replays the flight ring and terminates immediately.
func TestServerEventsReplayForFinishedJob(t *testing.T) {
	srv, m := startTestServer(t, ManagerConfig{})
	j, err := m.Submit(fastJob())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	events := readEventStream(t, "http://"+srv.Addr()+"/jobs/"+j.ID()+"/events")
	flight := j.Hub().FlightEvents()
	if len(events) != len(flight) {
		t.Fatalf("replayed %d events, flight ring holds %d", len(events), len(flight))
	}
}

// TestServerConcurrentJobsDoNotShareObservability is the isolation
// guarantee under load (run with -race): two jobs running at once keep
// separate event streams, separate progress, and separate metrics rows.
func TestServerConcurrentJobsDoNotShareObservability(t *testing.T) {
	srv, m := startTestServer(t, ManagerConfig{MaxConcurrent: 2})
	sweep, err := m.Submit(JobSpec{Name: "sweep", System: "testbed", Sweep: true, CellPauseMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	point, err := m.Submit(JobSpec{Name: "point", System: "testbed", Benchmarks: []string{"hpl"}, Procs: 2, CellPauseMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Stream both jobs' events while both run.
	type streamed struct {
		id     string
		events []live.Event
	}
	results := make(chan streamed, 2)
	for _, j := range []*Job{sweep, point} {
		go func() {
			results <- streamed{j.ID(), readEventStream(t, "http://"+srv.Addr()+"/jobs/"+j.ID()+"/events")}
		}()
	}
	waitDone(t, sweep)
	waitDone(t, point)
	byID := map[string][]live.Event{}
	for i := 0; i < 2; i++ {
		select {
		case s := <-results:
			byID[s.id] = s.events
		case <-time.After(10 * time.Second):
			t.Fatal("event streams did not end")
		}
	}
	if sweep.State() != StateDone || point.State() != StateDone {
		t.Fatalf("states: sweep=%s point=%s", sweep.State(), point.State())
	}

	// Each stream must match its own hub exactly — no cross-talk.
	for _, j := range []*Job{sweep, point} {
		published := j.Hub().Progress().EventsPublished
		if got := uint64(len(byID[j.ID()])); got != published {
			t.Errorf("job %s streamed %d events, hub published %d", j.ID(), got, published)
		}
	}
	// The jobs are different sizes; identical totals would mean shared
	// progress state.
	sp, pp := sweep.Hub().Progress(), point.Hub().Progress()
	if sp.CellsTotal <= pp.CellsTotal {
		t.Errorf("sweep cells_total %d not greater than point's %d", sp.CellsTotal, pp.CellsTotal)
	}
	if pp.CellsTotal != 1 || pp.CellsDone != 1 {
		t.Errorf("point progress = %+v, want 1/1", pp)
	}

	// /metrics tracks both jobs in submission order with their own rows.
	code, body := httpJSON(t, http.MethodGet, "http://"+srv.Addr()+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`campaign_jobs{state="done"} 2`,
		fmt.Sprintf("campaign_job_cells_total{job=%q} %d", sweep.ID(), sp.CellsTotal),
		fmt.Sprintf("campaign_job_cells_total{job=%q} %d", point.ID(), pp.CellsTotal),
		"campaign_queue_depth 0",
		"campaign_jobs_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	if swIdx, ptIdx := strings.Index(text, sweep.ID()), strings.Index(text, point.ID()); swIdx == -1 || ptIdx == -1 || swIdx > ptIdx {
		t.Errorf("per-job metrics not in submission order (sweep at %d, point at %d)", swIdx, ptIdx)
	}
}

// TestServerCloseEndsEventStreams: closing the server while a client
// streams a running job's events terminates the stream and Close
// returns; the job itself keeps running under the manager.
func TestServerCloseEndsEventStreams(t *testing.T) {
	m := newTestManager(t, ManagerConfig{})
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Manager: m})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(slowJob())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamDone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		close(streamDone)
	}()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		srv.Close() // idempotent
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close blocked behind an open event stream")
	}
	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream still open after server Close")
	}
	waitDone(t, j)
	if st := j.State(); st != StateDone {
		t.Fatalf("job state after server close = %s, want done (server close must not kill jobs)", st)
	}
}

func TestServerCancelRunningJobOverHTTP(t *testing.T) {
	srv, m := startTestServer(t, ManagerConfig{})
	j, err := m.Submit(slowJob())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != StateRunning && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	code, body := httpJSON(t, http.MethodDelete, "http://"+srv.Addr()+"/jobs/"+j.ID(), nil)
	if code != http.StatusAccepted {
		t.Fatalf("DELETE running job: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.CancelRequested {
		t.Error("cancel response does not show cancel_requested")
	}
	waitDone(t, j)
	if st := j.State(); st != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
}
