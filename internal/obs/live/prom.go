package live

import (
	"io"

	"repro/internal/obs"
)

// WritePrometheus renders a registry snapshot plus the hub's live
// progress gauges in the Prometheus text exposition format (version
// 0.0.4). Registry names are sanitised into Prometheus identifiers,
// registry histograms become native Prometheus histograms, and progress
// fields become live_* gauges.
func WritePrometheus(w io.Writer, snap obs.Snapshot, prog ProgressSnapshot) error {
	var p obs.PromWriter
	family := func(name, kind string, v float64) {
		p.Type(name, kind)
		p.Float(name, v)
	}
	for _, m := range snap.Counters {
		family(m.Name, "counter", m.Value)
	}
	for _, m := range snap.Gauges {
		family(m.Name, "gauge", m.Value)
	}
	for _, h := range snap.Histograms {
		p.Type(h.Name, "histogram")
		p.Hist(h.Name, h)
	}

	family("live_cells_total", "gauge", float64(prog.CellsTotal))
	family("live_cells_done", "gauge", float64(prog.CellsDone))
	family("live_cells_failed", "gauge", float64(prog.CellsFailed))
	family("live_in_flight", "gauge", float64(prog.InFlight))
	family("live_retries", "gauge", float64(prog.Retries))
	family("live_degraded_cells", "gauge", float64(prog.DegradedCells))
	family("live_workers", "gauge", float64(prog.Workers))
	family("live_elapsed_seconds", "gauge", prog.ElapsedSeconds)
	family("live_eta_seconds", "gauge", prog.ETASeconds)
	family("live_events_published", "gauge", float64(prog.EventsPublished))
	family("live_events_dropped", "gauge", float64(prog.EventsDropped))
	done := 0.0
	if prog.Done {
		done = 1
	}
	family("live_done", "gauge", done)

	_, err := p.WriteTo(w)
	return err
}
