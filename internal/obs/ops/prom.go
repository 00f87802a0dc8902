package ops

import (
	"io"
	"strconv"

	"repro/internal/obs"
)

// WritePrometheus renders the ops plane in the Prometheus text
// exposition format (version 0.0.4): per-route and per-tenant request
// metrics, queue gauges and histograms, and the latest runtime
// self-sample. Routes, codes and tenants render in sorted order so
// consecutive scrapes diff cleanly. No-op on a nil bundle.
func WritePrometheus(w io.Writer, t *Telemetry) error {
	if t == nil {
		return nil
	}
	var p obs.PromWriter

	routes := t.HTTP().Routes()
	p.Type("ops_http_requests_total", "counter")
	for _, r := range routes {
		for _, c := range r.ByCode {
			p.Uint("ops_http_requests_total", c.Count, "route", r.Route, "code", strconv.Itoa(c.Code))
		}
	}
	p.Type("ops_http_in_flight", "gauge")
	for _, r := range routes {
		p.Uint("ops_http_in_flight", uint64(r.InFlight), "route", r.Route)
	}
	p.Type("ops_http_request_seconds", "histogram")
	for _, r := range routes {
		p.Hist("ops_http_request_seconds", r.hist, "route", r.Route)
	}

	tenants := t.HTTP().Tenants()
	p.Type("ops_tenant_requests_total", "counter")
	for _, tn := range tenants {
		p.Uint("ops_tenant_requests_total", tn.Requests, "tenant", tn.Tenant)
	}
	p.Type("ops_tenant_request_seconds", "histogram")
	for _, tn := range tenants {
		p.Hist("ops_tenant_request_seconds", tn.hist, "tenant", tn.Tenant)
	}

	gauge := func(name string, v float64) {
		p.Type(name, "gauge")
		p.Float(name, v)
	}
	counter := func(name string, v uint64) {
		p.Type(name, "counter")
		p.Uint(name, v)
	}
	hist := func(name string, h obs.HistSnap) {
		p.Type(name, "histogram")
		p.Hist(name, h)
	}
	q := t.Queue().Snapshot()
	gauge("campaign_slots", float64(q.Slots))
	gauge("campaign_slots_in_use", float64(q.SlotsInUse))
	gauge("campaign_max_queued", float64(q.MaxQueued))
	counter("campaign_jobs_queued_total", q.JobsQueued)
	counter("campaign_jobs_started_total", q.JobsStarted)
	counter("campaign_jobs_finished_total", q.JobsRun)
	hist("campaign_queue_wait_seconds", q.queueWaitHist)
	hist("campaign_run_seconds", q.runDurHist)

	rt := t.Runtime()
	gauge("ops_runtime_goroutines", float64(rt.Goroutines))
	gauge("ops_runtime_heap_alloc_bytes", float64(rt.HeapAllocBytes))
	gauge("ops_runtime_heap_sys_bytes", float64(rt.HeapSysBytes))
	gauge("ops_runtime_heap_objects", float64(rt.HeapObjects))
	counter("ops_runtime_gc_total", uint64(rt.NumGC))
	gauge("ops_runtime_gc_pause_total_seconds", rt.GCPauseTotalSeconds)
	gauge("ops_runtime_open_fds", float64(rt.OpenFDs))

	_, err := p.WriteTo(w)
	return err
}
