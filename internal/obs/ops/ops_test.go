package ops

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

func TestHandlerInstrumentsRoutes(t *testing.T) {
	m := newHTTPMetrics()
	ok := m.Handler("GET /jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("[]"))
	}))
	missing := m.Handler("GET /jobs/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such job", http.StatusNotFound)
	}))

	for i := 0; i < 3; i++ {
		ok.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/jobs", nil))
	}
	req := httptest.NewRequest("GET", "/jobs/42", nil)
	req.Header.Set(TenantHeader, "team-a")
	missing.ServeHTTP(httptest.NewRecorder(), req)

	routes := m.Routes()
	if len(routes) != 2 {
		t.Fatalf("Routes() returned %d rows, want 2: %+v", len(routes), routes)
	}
	// Sorted by label: "GET /jobs" before "GET /jobs/{id}".
	list := routes[0]
	if list.Route != "GET /jobs" || list.Requests != 3 || list.InFlight != 0 {
		t.Errorf("list route snapshot wrong: %+v", list)
	}
	if len(list.ByCode) != 1 || list.ByCode[0].Code != 200 || list.ByCode[0].Count != 3 {
		t.Errorf("list route status codes wrong: %+v", list.ByCode)
	}
	if list.Latency.Count != 3 {
		t.Errorf("latency histogram count = %d, want 3", list.Latency.Count)
	}
	get := routes[1]
	if get.Route != "GET /jobs/{id}" || len(get.ByCode) != 1 || get.ByCode[0].Code != 404 {
		t.Errorf("get route snapshot wrong: %+v", get)
	}

	tenants := m.Tenants()
	if len(tenants) != 2 {
		t.Fatalf("Tenants() returned %d rows, want 2: %+v", len(tenants), tenants)
	}
	if tenants[0].Tenant != DefaultTenant || tenants[0].Requests != 3 {
		t.Errorf("default tenant snapshot wrong: %+v", tenants[0])
	}
	if tenants[1].Tenant != "team-a" || tenants[1].Requests != 1 {
		t.Errorf("named tenant snapshot wrong: %+v", tenants[1])
	}
}

func TestHandlerTracksInFlight(t *testing.T) {
	m := newHTTPMetrics()
	entered := make(chan struct{})
	release := make(chan struct{})
	h := m.Handler("GET /events", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/events", nil))
	}()
	<-entered
	if routes := m.Routes(); len(routes) != 1 || routes[0].InFlight != 1 {
		t.Errorf("mid-request snapshot should show one in flight: %+v", routes)
	}
	close(release)
	wg.Wait()
	if routes := m.Routes(); routes[0].InFlight != 0 {
		t.Errorf("post-request snapshot should show zero in flight: %+v", routes)
	}
}

func TestHandlerForwardsFlush(t *testing.T) {
	m := newHTTPMetrics()
	h := m.Handler("GET /events", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("wrapped writer lost http.Flusher — NDJSON streaming would buffer forever")
			return
		}
		w.Write([]byte("line\n"))
		f.Flush()
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
}

func TestTenantOverflowBoundsCardinality(t *testing.T) {
	m := newHTTPMetrics()
	h := m.Handler("GET /", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	for i := 0; i < maxTenants+10; i++ {
		req := httptest.NewRequest("GET", "/", nil)
		req.Header.Set(TenantHeader, "tenant-"+strings.Repeat("x", i%97)+string(rune('a'+i%26))+strings.Repeat("y", i/26))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	tenants := m.Tenants()
	if len(tenants) > maxTenants+1 {
		t.Fatalf("tenant table grew to %d rows; the overflow bucket should cap it", len(tenants))
	}
	var overflow uint64
	for _, tn := range tenants {
		if tn.Tenant == "overflow" {
			overflow = tn.Requests
		}
	}
	if overflow == 0 {
		t.Error("no requests landed in the overflow tenant")
	}
}

func TestQueueStatsSnapshot(t *testing.T) {
	q := newQueueStats()
	q.Configure(2, 16)
	q.JobQueued()
	q.JobQueued()
	q.Sample(2, 0)
	q.JobStarted(0.5)
	q.Sample(1, 1)
	q.JobFinished(3)
	q.Sample(1, 0)

	s := q.Snapshot()
	if s.Slots != 2 || s.MaxQueued != 16 {
		t.Errorf("configured limits lost: %+v", s)
	}
	if s.JobsQueued != 2 || s.JobsStarted != 1 || s.JobsRun != 1 {
		t.Errorf("counters wrong: %+v", s)
	}
	if s.Depth != 1 || s.SlotsInUse != 0 {
		t.Errorf("gauges wrong: %+v", s)
	}
	if s.QueueWait.Count != 1 || s.QueueWait.Sum != 0.5 {
		t.Errorf("queue-wait histogram wrong: %+v", s.QueueWait)
	}
	if s.RunDuration.Count != 1 || s.RunDuration.Sum != 3 {
		t.Errorf("run-duration histogram wrong: %+v", s.RunDuration)
	}
	if len(s.DepthSeries) != 3 {
		t.Fatalf("depth series has %d points, want 3", len(s.DepthSeries))
	}
	if s.DepthSeries[0].Depth != 2 || s.DepthSeries[2].Running != 0 {
		t.Errorf("depth series misordered: %+v", s.DepthSeries)
	}
}

func TestQueueDepthSeriesRingWraps(t *testing.T) {
	q := newQueueStats()
	for i := 0; i < depthSeriesCap+50; i++ {
		q.Sample(i, 0)
	}
	s := q.Snapshot()
	if len(s.DepthSeries) != depthSeriesCap {
		t.Fatalf("ring holds %d points, want %d", len(s.DepthSeries), depthSeriesCap)
	}
	// Oldest surviving sample first, newest last.
	if first := s.DepthSeries[0].Depth; first != 50 {
		t.Errorf("oldest sample depth = %d, want 50", first)
	}
	if last := s.DepthSeries[depthSeriesCap-1].Depth; last != depthSeriesCap+49 {
		t.Errorf("newest sample depth = %d, want %d", last, depthSeriesCap+49)
	}
	for i := 1; i < len(s.DepthSeries); i++ {
		if s.DepthSeries[i].Depth != s.DepthSeries[i-1].Depth+1 {
			t.Fatalf("series not oldest-first at index %d: %d then %d",
				i, s.DepthSeries[i-1].Depth, s.DepthSeries[i].Depth)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := obs.NewHistogram(durationBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // lands in the (0.01, 0.1] bucket
	}
	s := summarize(h.Snap("t"))
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	// All mass in one bucket: every quantile reports that bucket's upper
	// bound.
	for name, got := range map[string]float64{"p50": s.P50, "p95": s.P95, "p99": s.P99} {
		if got < 0.01 || got > 0.1 {
			t.Errorf("%s = %v, want within the (0.01, 0.1] bucket", name, got)
		}
	}
}

func TestRuntimeSample(t *testing.T) {
	s := ReadRuntimeSample(time.Now())
	if s.Goroutines < 1 {
		t.Errorf("Goroutines = %d, want at least 1", s.Goroutines)
	}
	if s.HeapAllocBytes == 0 || s.HeapSysBytes == 0 {
		t.Errorf("heap gauges empty: %+v", s)
	}
	if s.OpenFDs == 0 {
		t.Errorf("OpenFDs = 0: a running test binary holds descriptors (want >0, or -1 off Linux)")
	}
}

func TestRuntimeSamplerLifecycle(t *testing.T) {
	tel := New()
	var mu sync.Mutex
	var samples int
	tel.StartRuntimeSampler(time.Millisecond, func(RuntimeSample) {
		mu.Lock()
		samples++
		mu.Unlock()
	})
	// The first sample is synchronous.
	mu.Lock()
	if samples < 1 {
		t.Error("no synchronous first sample")
	}
	mu.Unlock()
	if tel.Runtime().Goroutines < 1 {
		t.Error("Runtime() empty while the sampler runs")
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := samples
		mu.Unlock()
		if n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("sampler ticked %d times in 5s, want at least 3", n)
		case <-time.After(time.Millisecond):
		}
	}
	tel.Close()
	tel.Close() // idempotent
}

func TestTimelineTrace(t *testing.T) {
	tl := NewTimeline()
	for _, e := range []shard.Event{
		{Kind: shard.Started, Shard: 0, Attempt: 0, Cells: 4},
		{Kind: shard.Started, Shard: 1, Attempt: 0, Cells: 4},
		{Kind: shard.Lost, Shard: 1, Reason: "signal: killed"},
		{Kind: shard.Started, Shard: 1, Attempt: 1, Cells: 4},
		{Kind: shard.BeatGap, Shard: 1, Missed: 2},
		{Kind: shard.Bisected, Shard: 1, Left: []int{1, 2}, Right: []int{3, 4}},
		{Kind: shard.Quarantined, Shard: 1, Procs: 3, Reason: "exit status 3"},
		{Kind: shard.Finished, Shard: 0},
	} {
		tl.Observe(e)
	}
	// Shard 1's second attempt stays open: WriteFile must close it.

	if spans, events := len(tl.spans), len(tl.events); spans != 2 || events != 4 {
		t.Fatalf("timeline holds (%d, %d) spans and events, want (2, 4)", spans, events)
	}

	path := filepath.Join(t.TempDir(), "ops.trace.json")
	if err := tl.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check, err := obs.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("timeline is not a valid Chrome trace: %v", err)
	}
	if check.Spans != 3 || check.Instants != 4 {
		t.Errorf("trace has %d spans and %d instants, want 3 and 4", check.Spans, check.Instants)
	}
	for _, want := range []string{"shard 0", "shard 1", "attempt 1", "attempt 2", "bisect", "quarantine", "beat gap"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestWritePrometheusRendersEverySeries(t *testing.T) {
	tel := New()
	h := tel.HTTP().Handler("GET /jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/jobs", nil))
	// Tenant headers are client input: Go's server accepts a tab and
	// bytes 0x80-0xFF in a header value, and quotes and backslashes must
	// be escaped, so each must still render as a well-formed label.
	for _, tenant := range []string{"a\tb", "caf\xe9", `q"\`} {
		req := httptest.NewRequest("GET", "/jobs", nil)
		req.Header.Set(TenantHeader, tenant)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	tel.Queue().Configure(2, 16)
	tel.Queue().JobQueued()
	tel.Queue().JobStarted(0.1)
	tel.Queue().JobFinished(1)
	tel.Queue().Sample(0, 1)

	var b strings.Builder
	if err := WritePrometheus(&b, tel); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ops_http_requests_total{route="GET /jobs",code="200"} 4`,
		`ops_http_in_flight{route="GET /jobs"} 0`,
		`ops_http_request_seconds_count{route="GET /jobs"} 4`,
		`ops_tenant_requests_total{tenant="anonymous"} 1`,
		"ops_tenant_requests_total{tenant=\"a\tb\"} 1",
		"ops_tenant_requests_total{tenant=\"caf\uFFFD\"} 1",
		`ops_tenant_requests_total{tenant="q\"\\"} 1`,
		"campaign_slots 2",
		"campaign_slots_in_use 1",
		"campaign_max_queued 16",
		"campaign_jobs_queued_total 1",
		"campaign_jobs_started_total 1",
		"campaign_jobs_finished_total 1",
		"campaign_queue_wait_seconds_count 1",
		"campaign_run_seconds_count 1",
		"ops_runtime_goroutines",
		"ops_runtime_heap_alloc_bytes",
		"ops_runtime_open_fds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := obs.CheckExposition([]byte(out)); err != nil {
		t.Errorf("exposition breaks the text format: %v", err)
	}
	// Stable: a second render of the same state is byte-identical (sorted
	// iteration everywhere; no hidden wall-clock reads besides runtime
	// gauges, which the same idle process reports unchanged only rarely —
	// so compare just the HTTP and queue half).
	var b2 strings.Builder
	if err := WritePrometheus(&b2, tel); err != nil {
		t.Fatal(err)
	}
	cut := func(s string) string {
		i := strings.Index(s, "ops_runtime_goroutines")
		if i < 0 {
			t.Fatal("runtime section missing")
		}
		return s[:i]
	}
	if cut(out) != cut(b2.String()) {
		t.Error("two renders of identical state differ — iteration order leaked")
	}
}

func TestStatuszSnapshot(t *testing.T) {
	tel := New()
	h := tel.HTTP().Handler("GET /jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/jobs", nil))
	tel.Queue().Configure(4, 8)

	s := tel.Statusz(time.Now())
	if s == nil {
		t.Fatal("Statusz returned nil on a live bundle")
	}
	if s.UptimeSeconds < 0 {
		t.Errorf("negative uptime: %v", s.UptimeSeconds)
	}
	if len(s.HTTP) != 1 || s.HTTP[0].Route != "GET /jobs" {
		t.Errorf("routes wrong: %+v", s.HTTP)
	}
	if s.Queue.Slots != 4 || s.Queue.MaxQueued != 8 {
		t.Errorf("queue limits wrong: %+v", s.Queue)
	}
	if s.Runtime.Goroutines < 1 {
		t.Errorf("runtime sample empty: %+v", s.Runtime)
	}
}

func TestNilTelemetryIsInert(t *testing.T) {
	var tel *Telemetry
	if tel.HTTP() != nil || tel.Queue() != nil {
		t.Error("nil bundle returned live components")
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(204) })
	if h := tel.HTTP().Handler("GET /", inner); h == nil {
		t.Error("nil HTTPMetrics.Handler returned nil instead of next")
	} else {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != 204 {
			t.Error("nil middleware altered the response")
		}
	}
	tel.Queue().Configure(1, 1)
	tel.Queue().JobQueued()
	tel.Queue().JobStarted(1)
	tel.Queue().JobFinished(1)
	tel.Queue().Sample(1, 1)
	if s := tel.Queue().Snapshot(); s.JobsQueued != 0 {
		t.Error("nil queue recorded state")
	}
	tel.StartRuntimeSampler(time.Millisecond, nil)
	tel.Close()
	if tel.Statusz(time.Now()) != nil {
		t.Error("nil bundle produced a statusz snapshot")
	}
	var b strings.Builder
	if err := WritePrometheus(&b, tel); err != nil || b.Len() != 0 {
		t.Errorf("nil bundle rendered metrics: err=%v out=%q", err, b.String())
	}

	var tl *Timeline
	for k := shard.Started; k <= shard.BeatGap; k++ {
		tl.Observe(shard.Event{Kind: k, Reason: "x"})
	}
	if err := tl.WriteFile(filepath.Join(t.TempDir(), "never.json")); err != nil {
		t.Errorf("nil timeline WriteFile errored: %v", err)
	}
}
