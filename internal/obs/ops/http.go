package ops

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// TenantHeader is the request header the middleware reads the tenant
// label from. Absent or empty, requests fall under DefaultTenant.
const TenantHeader = "X-Greenbench-Tenant"

// DefaultTenant labels requests that carry no tenant header.
const DefaultTenant = "anonymous"

// maxTenants bounds per-tenant label cardinality; once the table is
// full, new tenants collapse into the "overflow" row so a label-spray
// client cannot grow server memory without bound.
const maxTenants = 64

type routeStats struct {
	inFlight int64
	byCode   map[int]uint64
	latency  *obs.Histogram
}

type tenantStats struct {
	requests uint64
	latency  *obs.Histogram
}

// HTTPMetrics instruments the campaign server's routes: request and
// status-code counters, in-flight gauges and latency histograms per
// route, plus request counters and latency per tenant. All methods are
// nil-receiver safe.
type HTTPMetrics struct {
	mu      sync.Mutex
	routes  map[string]*routeStats
	tenants map[string]*tenantStats
}

func newHTTPMetrics() *HTTPMetrics {
	return &HTTPMetrics{
		routes:  map[string]*routeStats{},
		tenants: map[string]*tenantStats{},
	}
}

// statusWriter captures the response status code. It forwards Flush so
// wrapping the NDJSON event-stream handler (which needs http.Flusher)
// keeps streaming.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler wraps next with request instrumentation under the given route
// label (the mux pattern's path, so cardinality stays bounded — never
// the raw URL). On a nil receiver it returns next unwrapped, so route
// registration needs no ops-enabled branch.
func (m *HTTPMetrics) Handler(route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tenant := r.Header.Get(TenantHeader)
		if tenant == "" {
			tenant = DefaultTenant
		}
		m.begin(route)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		m.end(route, tenant, code, time.Since(start).Seconds())
	})
}

func (m *HTTPMetrics) begin(route string) {
	m.mu.Lock()
	m.route(route).inFlight++
	m.mu.Unlock()
}

func (m *HTTPMetrics) end(route, tenant string, code int, seconds float64) {
	m.mu.Lock()
	rs := m.route(route)
	rs.inFlight--
	rs.byCode[code]++
	rs.latency.Observe(seconds)
	ts, ok := m.tenants[tenant]
	if !ok {
		if len(m.tenants) >= maxTenants {
			tenant = "overflow"
		}
		if ts, ok = m.tenants[tenant]; !ok {
			ts = &tenantStats{latency: obs.NewHistogram(latencyBuckets)}
			m.tenants[tenant] = ts
		}
	}
	ts.requests++
	ts.latency.Observe(seconds)
	m.mu.Unlock()
}

// route returns the stats row for a route label; the caller holds m.mu.
func (m *HTTPMetrics) route(route string) *routeStats {
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{byCode: map[int]uint64{}, latency: obs.NewHistogram(latencyBuckets)}
		m.routes[route] = rs
	}
	return rs
}

// CodeCount is one status-code row in a route snapshot.
type CodeCount struct {
	Code  int    `json:"code"`
	Count uint64 `json:"count"`
}

// RouteSnap is one route's view in /statusz and /metrics.
type RouteSnap struct {
	Route    string      `json:"route"`
	Requests uint64      `json:"requests"`
	InFlight int64       `json:"in_flight"`
	ByCode   []CodeCount `json:"by_code"`
	Latency  HistSummary `json:"latency"`

	// hist carries the full buckets for the Prometheus rendering; it
	// stays unexported so the JSON view is the compact summary.
	hist obs.HistSnap
}

// Routes snapshots every route sorted by label. Nil-safe.
func (m *HTTPMetrics) Routes() []RouteSnap {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]RouteSnap, 0, len(names))
	for _, name := range names {
		rs := m.routes[name]
		codes := make([]int, 0, len(rs.byCode))
		for code := range rs.byCode {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		var (
			total  uint64
			byCode []CodeCount
		)
		for _, code := range codes {
			byCode = append(byCode, CodeCount{Code: code, Count: rs.byCode[code]})
			total += rs.byCode[code]
		}
		snap := rs.latency.Snap("ops_http_request_seconds")
		out = append(out, RouteSnap{
			Route: name, Requests: total, InFlight: rs.inFlight,
			ByCode: byCode, Latency: summarize(snap), hist: snap,
		})
	}
	return out
}

// TenantSnap is one tenant's view in /statusz and /metrics.
type TenantSnap struct {
	Tenant   string      `json:"tenant"`
	Requests uint64      `json:"requests"`
	Latency  HistSummary `json:"latency"`

	hist obs.HistSnap
}

// Tenants snapshots every tenant sorted by label. Nil-safe.
func (m *HTTPMetrics) Tenants() []TenantSnap {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantSnap, 0, len(names))
	for _, name := range names {
		ts := m.tenants[name]
		snap := ts.latency.Snap("ops_tenant_request_seconds")
		out = append(out, TenantSnap{Tenant: name, Requests: ts.requests, Latency: summarize(snap), hist: snap})
	}
	return out
}
