package live

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/obs"
)

// Server exposes a hub over HTTP:
//
//	/metrics   Prometheus text exposition of the registry snapshot plus
//	           live_* progress gauges
//	/progress  the current ProgressSnapshot as JSON
//	/events    the event stream as NDJSON: the flight ring's retained
//	           events, then live ones (connection stays open)
//	/          a plain-text index
//
// The snapshot callback supplies the registry view for /metrics; it runs
// per request, so the exposition always reflects the pipeline's current
// counters without the server holding any registry reference of its own.
type Server struct {
	*HTTPServer
	hub      *Hub
	snapshot func() obs.Snapshot
}

// NewServer starts serving on addr (":0" picks an ephemeral port) and
// returns once the listener is bound, so Addr() is immediately valid.
func NewServer(addr string, hub *Hub, snapshot func() obs.Snapshot) (*Server, error) {
	if snapshot == nil {
		snapshot = func() obs.Snapshot { return obs.Snapshot{} }
	}
	hs, err := Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	s := &Server{HTTPServer: hs, hub: hub, snapshot: snapshot}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/events", s.handleEvents)
	s.Serve(mux)
	return s, nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "greenbench live telemetry\n\n/metrics   Prometheus exposition\n/progress  progress snapshot (JSON)\n/events    event stream (NDJSON)\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, s.snapshot(), s.hub.Progress())
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(s.hub.Progress(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	_, _ = w.Write(b)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.hub.Bus() == nil {
		http.Error(w, "no live hub", http.StatusServiceUnavailable)
		return
	}
	if !s.StreamEvents(w, r, s.hub, nil) {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	}
}
